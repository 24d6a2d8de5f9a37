// Command gluon-trace is the observability CLI. With a trace file it
// analyzes a substrate trace produced by gluon-run or gluon-bench (-trace
// flag): it reads either export format (Chrome trace_event JSON or JSONL)
// and prints the paper-style tables — per-round communication volume and
// time, per-peer skew, phase time breakdown, the encoding-mode histogram,
// and any fault timeline.
//
// With -critical it prints the critical-path attribution instead: per round,
// which host arrived at the termination barrier last and which of its phases
// (compute / encode / wire / recv-wait / fold / apply / straggler-wait)
// dominated, plus the optimization-effectiveness ledger — bytes shipped
// against a modeled naive dense broadcast, split by compression, update-mask
// sparsity, and invariant skips, with the sync time each saving is worth at
// the observed wire rate.
//
// The subcommands cover the rest of a run's life:
//
//   - serve is the standalone trace collector for multi-process clusters:
//     every process points its trace shipper at the listen address, and
//     gluon-trace merges the shipped events onto one clock-aligned
//     timeline, writes it to -o, and prints the same tables.
//   - top attaches to a collector (serve, gluon-run -top-addr, or
//     examples/tcp-cluster -collect) and draws a live cluster dashboard.
//   - doctor diagnoses a dead cluster from its postmortem bundles.
//   - perf prints the trend tables of the benchmark history and, with
//     -check, flags a regression in its newest record.
//
// Usage:
//
//	gluon-trace [-json] [-critical] [-top n] [-label s] trace-file
//	gluon-trace serve [-sessions n] [-o merged.json] [-json] [-critical] [-top n] [-label s] addr
//	gluon-trace top [-refresh 1s] [-rounds 8] [-o jsonl] [-once] collector-addr
//	gluon-trace doctor [-o final.trace.json] [-window 10s] [-json] bundle-dir
//	gluon-trace perf [-db BENCH_history.jsonl] [-check] [-tol 0.05] [-window 8] [-fp id]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gluon/internal/trace"
)

const usage = `usage: gluon-trace [-json] [-critical] [-top n] [-label s] trace-file
       gluon-trace serve [-sessions n] [-o merged.json] [report flags] addr
       gluon-trace top [-refresh d] [-rounds n] [-o jsonl] [-once] collector-addr
       gluon-trace doctor [-o final.trace.json] [-window 10s] [-json] bundle-dir
       gluon-trace perf [-db history.jsonl] [-check] [-tol f] [-window n] [-fp id]`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// subcommands maps a first argument to its handler; any other first
// argument starts the trace-file analyzer.
var subcommands = map[string]func(c *cli, args []string) int{
	"serve":  serve,
	"top":    top,
	"doctor": doctor,
	"perf":   perf,
}

// run executes one invocation and returns its exit code: 0 on success, 1
// on a failure (or a regression, for perf -check), 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{out: stdout, errOut: stderr, log: slog.New(trace.NewLogHandler(stderr, "gluon-trace", nil))}
	if len(args) > 0 {
		if sub := subcommands[args[0]]; sub != nil {
			return sub(c, args[1:])
		}
		// A bare word that names no file is a mistyped subcommand, not a
		// trace to open.
		if w := args[0]; !strings.HasPrefix(w, "-") && !strings.ContainsAny(w, "./") {
			if _, err := os.Stat(w); err != nil {
				fmt.Fprintf(stderr, "gluon-trace: unknown subcommand %q\n%s\n", w, usage)
				return 2
			}
		}
	}
	return analyze(c, args)
}

// cli is one invocation's output plumbing, shared by every subcommand.
type cli struct {
	out, errOut io.Writer
	log         *slog.Logger
}

// fail logs err and returns the failure exit code.
func (c *cli) fail(err error) int {
	c.log.Error(err.Error())
	return 1
}

// emitJSON writes v as indented JSON on stdout.
func (c *cli) emitJSON(v any) error {
	enc := json.NewEncoder(c.out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// flags returns a subcommand's flag set; help is the usage text printed
// above the flag defaults.
func (c *cli) flags(name, help string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	fs.Usage = func() {
		fmt.Fprintf(c.errOut, "%s\n\n", help)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses args into fs and wants exactly positional arguments (-1
// takes any). When ok is false the caller returns code: 0 after -h, 2 after
// a usage error.
func parse(fs *flag.FlagSet, args []string, positional int) (code int, ok bool) {
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0, false
	} else if err != nil {
		return 2, false
	}
	if positional >= 0 && fs.NArg() != positional {
		fs.Usage()
		return 2, false
	}
	return 0, true
}

// signals delivers interrupts until the returned stop is called.
func signals() (<-chan os.Signal, func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig, func() { signal.Stop(sig) }
}

// reportOpts selects what analyze and serve print.
type reportOpts struct {
	asJSON   bool
	critical bool
	peerCap  int
	label    string
}

func reportFlags(fs *flag.FlagSet) *reportOpts {
	o := &reportOpts{}
	fs.BoolVar(&o.asJSON, "json", false, "emit the summary as JSON instead of tables")
	fs.StringVar(&o.label, "label", "", "override the label shown in the header")
	fs.BoolVar(&o.critical, "critical", false, "print critical-path attribution (gating host/phase per round + optimization ledger) instead of the standard tables")
	fs.IntVar(&o.peerCap, "top", 20, "cap the per-peer skew table at the n heaviest pairs (0 = all)")
	return o
}

func (c *cli) report(meta trace.Meta, events []trace.Event, o *reportOpts) error {
	if o.label != "" {
		meta.Label = o.label
	}
	if o.critical {
		cp := trace.ComputeCriticalPath(meta, events)
		if o.asJSON {
			return c.emitJSON(cp)
		}
		return cp.WriteTables(c.out)
	}
	s := trace.SummarizeMeta(meta, events)
	s.PeerCap = o.peerCap
	if o.asJSON {
		return c.emitJSON(s)
	}
	return s.WriteTables(c.out)
}

// analyze prints the tables of one trace file.
func analyze(c *cli, args []string) int {
	fs := c.flags("gluon-trace", usage+"\n\nReads a Chrome trace_event or JSONL export written by gluon-run/gluon-bench -trace\nand prints per-round, per-peer, and per-phase tables (-critical for barrier-gating\nattribution and the optimization ledger). The subcommands collect (serve), watch\n(top), diagnose (doctor) and track benchmarks (perf); -h after one lists its flags.")
	o := reportFlags(fs)
	if code, ok := parse(fs, args, 1); !ok {
		return code
	}
	path := fs.Arg(0)
	events, meta, err := trace.ReadFileMeta(path)
	if err != nil {
		return c.fail(err)
	}
	// An empty trace is an error, not an empty table: it means the producer
	// never recorded anything (tracing off, crash before export, truncation).
	if len(events) == 0 {
		return c.fail(fmt.Errorf("%s: trace contains no events", path))
	}
	if err := c.report(meta, events, o); err != nil {
		return c.fail(err)
	}
	trace.LogDropped(c.log, meta.Dropped)
	return 0
}

// serve runs a trace collector: it accepts shipper sessions until the
// target count completes (or an interrupt arrives), then merges, exports
// and summarizes.
func serve(c *cli, args []string) int {
	fs := c.flags("gluon-trace serve", "usage: gluon-trace serve [-sessions n] [-o merged.json] [-json] [-critical] [-top n] [-label s] addr\n\n"+
		"Collects and merges traces shipped live from a multi-process cluster onto one\nclock-aligned timeline, then prints the same tables as a trace file gets.")
	o := reportFlags(fs)
	wantSessions := fs.Int("sessions", 0, "exit after this many shipper sessions complete (0 = run until interrupted)")
	out := fs.String("o", "", "write the merged cluster trace to this file (.jsonl = JSONL, else Chrome)")
	if code, ok := parse(fs, args, 1); !ok {
		return code
	}
	col, err := trace.ListenAndCollect(fs.Arg(0))
	if err != nil {
		return c.fail(err)
	}
	finish := "Ctrl-C to finish"
	if *wantSessions > 0 {
		finish = fmt.Sprintf("exiting after %d sessions", *wantSessions)
	}
	c.log.Info("collecting (point trace shippers here; gluon-trace top attaches live)", "addr", col.Addr(), "until", finish)
	sig, stop := signals()
	defer stop()
wait:
	for {
		select {
		case <-sig:
			c.log.Info("interrupted; merging what arrived")
			break wait
		case <-time.After(100 * time.Millisecond):
			if _, done := col.Sessions(); *wantSessions > 0 && done >= *wantSessions {
				break wait
			}
		}
	}
	col.Close()
	sessionErrs := col.Errs()
	for _, e := range sessionErrs {
		c.log.Error("shipper session ended in error", "err", e)
	}
	broken := 0
	for _, si := range col.SessionInfos() {
		if si.State == "error" {
			broken++
			c.log.Error("shipper session disconnected without bye",
				"session", si.ID, "addr", si.Addr, "hosts", si.Hosts, "reason", si.Error)
		}
	}
	events, meta := col.Merged()
	if len(events) == 0 {
		return c.fail(fmt.Errorf("no trace events collected (were shippers pointed at %s?)", col.Addr()))
	}
	if o.label != "" {
		meta.Label = o.label
	}
	if *out != "" {
		if err := trace.WriteFileMeta(*out, meta, events); err != nil {
			return c.fail(err)
		}
		c.log.Info("wrote merged trace", "events", len(events), "path", *out)
	}
	if err := c.report(meta, events, o); err != nil {
		return c.fail(err)
	}
	// A collector that lost sessions must not exit 0: the merged timeline is
	// incomplete, and scripts gating on it would silently trust partial data.
	if n := max(len(sessionErrs), broken); n > 0 {
		return c.fail(fmt.Errorf("%d shipper session(s) ended in error (listed above); merged trace is incomplete", n))
	}
	return 0
}
