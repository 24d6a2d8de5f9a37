// Command perfbench is the end-to-end and per-layer benchmark of the Gluon
// substrate. It drives the system only through the calls a user makes
// (partition.NewPolicy and PartitionAll, dsys.RunPartitioned and
// dsys.RunWithTransports over the algorithm factories), checks every answer
// against internal/ref, and prints every metric with its unit and sample
// count. The last line of its output is one JSON result object.
//
//	perfbench --workload pr-bulk --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how to run them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gluon/internal/partition"
	"gluon/internal/perfdb"
)

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the run record: what was measured, where, and on which input.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      perfdb.Fingerprint `json:"host"`
	HostID    string             `json:"host_id"`
	Input     fingerprint        `json:"input"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   []stat             `json:"metrics"`
	Spans     string             `json:"spans,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *traceFlag))
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, workloadNames())
		os.Exit(2)
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	res, err := runWorkload(os.Stdout, w, *seed, *seconds, *traceFlag == 1, spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload sets up and measures one workload, printing the input and
// host fingerprints, every metric and the run record to out.
func runWorkload(out io.Writer, w workload, seed uint64, seconds float64, traced bool, spanPath string) (*result, error) {
	host := perfdb.Probe()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, seed, seconds, traced)
	fmt.Fprintf(out, "host %s\n", host)
	in, err := generate(inputScale, inputEdgeFactor, seed, w.alg == "sssp")
	if err != nil {
		return nil, err
	}
	inFP := in.fingerprint()
	fmt.Fprintf(out, "input rmat scale=%d edgefactor=%d seed=%d %s\n", inputScale, inputEdgeFactor, seed, inFP)
	r, err := newRunner(w, in)
	if err != nil {
		return nil, err
	}
	defer r.close()

	var setupWall, setupCPU, partS, dialS []float64
	for i := 0; i < setupReps; i++ {
		st, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupWall = append(setupWall, st.total.Seconds())
		setupCPU = append(setupCPU, st.cpu.Seconds())
		partS = append(partS, st.partition.Seconds())
		dialS = append(dialS, st.dial.Seconds())
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	m := r.measure(out, time.Duration(seconds*float64(time.Second)), traced)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	var stats []stat
	add := func(name string, v float64, n int) {
		stats = append(stats, stat{Name: name, Value: v, Unit: unitOf(name), Samples: n})
	}
	if !traced {
		jobS, setupWallS := median(m.walls), median(setupWall)
		add("setup_s", minOf(setupCPU), len(setupCPU))
		add("setup_wall_s", setupWallS, len(setupWall))
		add("job_s", jobS, len(m.walls))
		if len(m.walls) >= 100 {
			add("job_s.p90", percentile(m.walls, 90), len(m.walls))
		}
		add("job_cpu_s", minOf(m.batchCPUs), len(m.batchCPUs))
		add("mteps", float64(m.traversed)/float64(len(m.walls))/jobS/1e6, len(m.walls))
		add("e2e_s", setupWallS+median(m.batches), len(m.batches))
		add("comm_bytes", mean(m.firstBatchBytes), len(m.firstBatchBytes))
		add("fail_ratio", float64(m.failed)/float64(m.attempted), m.attempted)
		add("rss_peak_mb", rss, 1)
	} else {
		ps := partition.ComputeStats(r.parts)
		add("partition.s", minOf(partS), len(partS))
		add("partition.replication", ps.ReplicationFactor, 1)
		add("partition.edge_imbalance", ps.EdgeImbalance, 1)
		n := len(m.layers["gluon.new_s"])
		for _, d := range perLayer {
			if vals, ok := m.layers[d.name]; ok {
				add(d.name, mean(vals), len(vals))
			}
		}
		if r.w.tcp {
			add("comm.dial_s", minOf(dialS), len(dialS))
		} else {
			add("comm.dial_s", mean(m.hubDial), len(m.hubDial))
		}
		add("gluon.empty_share", m.sum["gluon.msgs.empty"]/m.sum["gluon.msgs"], n)
		add("engine.yield", m.sum["engine.updated"]/m.sum["engine.frontier"], n)
		var refS []float64
		for _, a := range r.answers {
			refS = append(refS, a.solve.Seconds())
		}
		add("ref.s", mean(refS), len(refS))
		add("bench.trace_overhead", median(m.tracedWalls)/median(m.walls), len(m.tracedWalls))
		stats = sortLike(stats, perLayer)
		if err := writeSpans(spanPath, m.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(m.spans), spanPath)
	}
	if m.commVaried > 0 {
		fmt.Fprintf(out, "note: comm_bytes of %d repeated jobs differed from the first run of the same job\n", m.commVaried)
	}
	for _, s := range stats {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("metric %s could not be measured (%d of %d jobs failed)", s.Name, m.failed, m.attempted)
		}
		fmt.Fprintf(out, "metric %-26s %-14.6g %-12s n=%d\n", s.Name, s.Value, s.Unit, s.Samples)
	}
	rec := record{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Host: host, HostID: host.ID(), Input: inFP,
		Attempted: m.attempted, Failed: m.failed, Metrics: stats,
	}
	if traced {
		rec.Spans = spanPath
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "record %s\n", line)

	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]metricValue{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	byName := map[string]stat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	for _, d := range defs {
		s, ok := byName[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: s.Value, Unit: s.Unit}
	}
	return res, nil
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, endToEndPrinted, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// sortLike orders stats as defs lists them.
func sortLike(stats []stat, defs []metricDef) []stat {
	var out []stat
	for _, d := range defs {
		for _, s := range stats {
			if s.Name == d.name {
				out = append(out, s)
			}
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own process, so that each process's
// peak RSS belongs to one workload, and ends with one combined result.
func runAll(seed uint64, seconds float64, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: result line: %v\n", w.name, err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
