package main

import (
	"time"

	"gluon/internal/trace"
)

// doctor performs causal crash diagnosis on the postmortem bundles a dead
// cluster left behind. Point it at the -postmortem-dir the run was armed
// with (collect the bundles from every surviving host into one directory
// first, for multi-machine clusters) and it prints the operator transcript:
// which rank failed first and why, how the poison propagated through the
// survivors, what the stalled host was last doing, and how many rounds of
// work a checkpoint restore would replay.
//
// Bundles from different processes carry unrelated session clocks; doctor
// aligns them with the sideband-measured clock offsets when every session
// shipped traces, falling back to wall-clock alignment otherwise. With -o
// it also writes the merged, aligned Chrome trace of the cluster's final
// seconds for chrome://tracing or Perfetto.
func doctor(c *cli, args []string) int {
	fs := c.flags("gluon-trace doctor", "usage: gluon-trace doctor [-o final.trace.json] [-window 10s] [-json] bundle-dir\n\n"+
		"Loads the postmortem bundles written by an armed flight recorder (gluon-run\n-postmortem-dir), aligns them onto one clock, and prints a causal diagnosis of\nthe cluster's death: first-failing rank, trigger, poison cascade, last-known\nactivity, and the recompute distance from the last checkpoint.")
	out := fs.String("o", "", "write the merged, clock-aligned Chrome trace of the final window to this file")
	window := fs.Duration("window", 10*time.Second, "with -o: trailing timeline to keep (0 = everything)")
	asJSON := fs.Bool("json", false, "emit the structured diagnosis as JSON instead of the transcript")
	if code, ok := parse(fs, args, 1); !ok {
		return code
	}
	dir := fs.Arg(0)
	bundles, bad, err := trace.LoadBundles(dir)
	for _, e := range bad {
		c.log.Warn("skipping corrupt bundle", "err", e)
	}
	if err != nil {
		return c.fail(err)
	}
	d := trace.Diagnose(bundles)
	if *asJSON {
		// The merged ring events can run to megabytes; the JSON verdict is
		// for scripting, so it carries the diagnosis without the raw events
		// (use -o for the timeline).
		slim := *d
		slim.Merged = nil
		if err := c.emitJSON(&slim); err != nil {
			return c.fail(err)
		}
	} else {
		d.WriteReport(c.out)
	}
	if *out != "" {
		events := trace.FinalWindow(d.Merged, *window)
		meta := trace.Meta{Label: "postmortem " + dir, Dropped: d.MergedDropped, Clocks: d.MergedClocks}
		if err := trace.WriteFileMeta(*out, meta, events); err != nil {
			return c.fail(err)
		}
		c.log.Info("wrote aligned events", "events", len(events), "path", *out)
	}
	return 0
}
