package bench

// Sync hot-path measurement and regression guard: the same measurement
// as BenchmarkSyncHotPath in internal/gluon, appended through gluon-bench
// to the machine-fingerprinted perfdb history (BENCH_history.jsonl) so
// successive changes have a perf trajectory to compare against. One row per
// encoding mode × host count: wall time, bytes allocated, allocations, and
// a MAD noise estimate per full cluster-wide Sync (every host encodes,
// ships, receives, and applies one round).
//
// The `make check` gate re-measures the guard tiers and compares them
// against the newest sync-bench record of the history with
// perfdb.CompareRatios, the self-calibrating opt/unopt ratio gate
// (DESIGN.md §4.9). This package only measures; every comparison lives in
// perfdb.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"gluon/internal/autotune"
	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/fields"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/partition"
	"gluon/internal/perfdb"
	"gluon/internal/trace"
)

// syncBenchCluster mirrors the BenchmarkSyncHotPath fixture through the
// public API: per-host substrates over a CVC partitioning with a uint32
// min/set field, updates on every fifth proxy.
type syncBenchCluster struct {
	parts  []*partition.Partition
	gs     []*gluon.Gluon
	labels [][]uint32
	upds   []*bitset.Bitset
	close  func()
}

func newSyncBenchCluster(p Params, hosts int, opt gluon.Options) (*syncBenchCluster, error) {
	cfg := generate.Config{Kind: "rmat", Scale: p.Scale, EdgeFactor: p.EdgeFactor, Seed: p.Seed}
	edges, err := generate.Edges(cfg)
	if err != nil {
		return nil, err
	}
	numNodes := cfg.NumNodes()
	outDeg := make([]uint32, numNodes)
	inDeg := make([]uint32, numNodes)
	for _, e := range edges {
		outDeg[e.Src]++
		inDeg[e.Dst]++
	}
	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts,
		partition.Options{OutDegrees: outDeg, InDegrees: inDeg})
	if err != nil {
		return nil, err
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		return nil, err
	}
	hub := comm.NewHub(hosts)
	c := &syncBenchCluster{parts: parts, close: hub.Close}
	c.gs = make([]*gluon.Gluon, hosts)
	c.labels = make([][]uint32, hosts)
	c.upds = make([]*bitset.Bitset, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			c.gs[h], errs[h] = gluon.New(parts[h], hub.Endpoint(h), opt)
		}(h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			hub.Close()
			return nil, err
		}
	}
	for h := 0; h < hosts; h++ {
		c.labels[h] = make([]uint32, parts[h].NumProxies())
		for i := range c.labels[h] {
			c.labels[h][i] = fields.InfinityU32
		}
		c.upds[h] = bitset.New(parts[h].NumProxies())
	}
	return c, nil
}

func (c *syncBenchCluster) markUpdates(round int) {
	for h := range c.gs {
		c.upds[h].Reset()
		n := c.parts[h].NumProxies()
		for i := uint32(0); i < n; i += 5 {
			c.upds[h].SetUnsync(i)
			c.labels[h][i] = uint32(round)
		}
	}
}

func (c *syncBenchCluster) syncAll() error {
	errs := make([]error, len(c.gs))
	var wg sync.WaitGroup
	for h := range c.gs {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			f := gluon.Field[uint32]{
				ID:        90,
				Name:      "syncbench",
				Write:     gluon.AtDestination,
				Read:      gluon.AtSource,
				Reduce:    fields.MinU32{Labels: c.labels[h]},
				Broadcast: fields.SetU32{Labels: c.labels[h]},
			}
			errs[h] = gluon.Sync(c.gs[h], f, c.upds[h])
		}(h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// encSpec pairs an encoding name with an options factory. A factory (not a
// value) because the adaptive-compression tier carries a stateful
// CompressTuner: each measured cluster must start from an untrained policy,
// or the 8-host row would inherit what the 2-host row learned.
type encSpec struct {
	name string
	opt  func() gluon.Options
}

func allEncodings() []encSpec {
	return []encSpec{
		{"auto", gluon.Opt},
		{"dense", withEncoding(gluon.EncodingDense)},
		{"bitvec", withEncoding(gluon.EncodingBitvec)},
		{"indices", withEncoding(gluon.EncodingIndices)},
		{"unopt", gluon.Unopt},
		{"comp-static", compStatic},
		{"comp-adaptive", compAdaptive},
	}
}

// compStatic is the static-threshold compression tier: every payload at or
// above CompressThreshold gets the DEFLATE attempt, the pre-policy
// behaviour.
func compStatic() gluon.Options {
	opt := gluon.Opt()
	opt.Compress = true
	opt.CompressThreshold = 256
	return opt
}

// compAdaptive is the adaptive tier: a fresh CompressTuner decides per
// field from observed ratio and encode cost. MinSize matches the static
// tier's threshold so the two rows differ only in the adaptive decision.
func compAdaptive() gluon.Options {
	opt := gluon.Opt()
	opt.Compress = true
	opt.CompressPolicy = autotune.NewCompressTuner(autotune.CompressConfig{MinSize: 256})
	return opt
}

// SyncBenchTiers measures the named encodings (see allEncodings for the
// valid names; nil means all of them) at each host count.
func SyncBenchTiers(p Params, hostCounts []int, names []string) (*perfdb.Record, error) {
	all := allEncodings()
	if names == nil {
		return syncBenchFor(p, hostCounts, all)
	}
	var specs []encSpec
	for _, n := range names {
		i := slices.IndexFunc(all, func(e encSpec) bool { return e.name == n })
		if i < 0 {
			return nil, fmt.Errorf("bench: unknown sync encoding %q", n)
		}
		specs = append(specs, all[i])
	}
	return syncBenchFor(p, hostCounts, specs)
}

// measureReps repeats each row's measurement and keeps the fastest: wall
// time on a shared machine is noisy, and load spikes only ever inflate a
// rep, so the min estimates the true cost. Allocations are deterministic
// and identical across reps. Eight reps (not fewer) because the gates
// compare two independent min estimates against a tight tolerance — on a
// small or busy machine both must converge to the true floor or the gate
// flaps. The spread of the reps (MAD) rides along as the row's noise
// estimate.
const measureReps = 8

// syncGraph names the measured graph in a record; baselines match on it.
func syncGraph(p Params) string {
	return fmt.Sprintf("rmat scale=%d ef=%d seed=%d cvc", p.Scale, p.EdgeFactor, p.Seed)
}

func syncBenchFor(p Params, hostCounts []int, encodings []encSpec) (*perfdb.Record, error) {
	fp := perfdb.Probe()
	rec := &perfdb.Record{
		Graph:         syncGraph(p),
		Workers:       p.Workers,
		Fingerprint:   fp,
		FingerprintID: fp.ID(),
	}
	for _, hosts := range hostCounts {
		for _, e := range encodings {
			opt := e.opt()
			opt.SyncWorkers = p.Workers
			c, err := newSyncBenchCluster(p, hosts, opt)
			if err != nil {
				return nil, fmt.Errorf("sync bench hosts=%d %s: %w", hosts, e.name, err)
			}
			var benchErr error
			var best testing.BenchmarkResult
			reps := make([]int64, 0, measureReps)
			for trial := 0; trial < measureReps && benchErr == nil; trial++ {
				r := testing.Benchmark(func(b *testing.B) {
					// Warm one round so memoization and pools are primed.
					c.markUpdates(0)
					if err := c.syncAll(); err != nil {
						benchErr = err
						b.SkipNow()
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.markUpdates(i + 1)
						if err := c.syncAll(); err != nil {
							benchErr = err
							b.SkipNow()
						}
					}
				})
				reps = append(reps, r.NsPerOp())
				if trial == 0 || r.NsPerOp() < best.NsPerOp() {
					best = r
				}
			}
			c.close()
			if benchErr != nil {
				return nil, fmt.Errorf("sync bench hosts=%d %s: %w", hosts, e.name, benchErr)
			}
			rec.Benchmarks = append(rec.Benchmarks, perfdb.BenchResult{
				Name:        fmt.Sprintf("sync/h=%d/%s", hosts, e.name),
				Hosts:       hosts,
				Encoding:    e.name,
				NsPerOp:     best.NsPerOp(),
				BytesPerOp:  best.AllocedBytesPerOp(),
				AllocsPerOp: best.AllocsPerOp(),
				NoiseNs:     perfdb.MAD(reps),
				Reps:        len(reps),
			})
		}
	}
	return rec, nil
}

func withEncoding(enc gluon.Encoding) func() gluon.Options {
	return func() gluon.Options {
		opt := gluon.Opt()
		opt.ForceEncoding = enc
		return opt
	}
}

// commProbeRounds is how many BSP rounds the traced probe runs; every
// third round ships nothing, exercising the temporal-invariance silent
// path so the invariant-skip share is a live number, not a constant zero.
const commProbeRounds = 6

// CommProbe runs a small instrumented cluster (static-threshold
// compression, so the compression counters are live) for a few rounds and
// distills the trace ledger into the comm-volume counters a perf-history
// record carries. Timing is irrelevant here — tracing overhead doesn't
// matter, only bytes and round structure do.
func CommProbe(p Params, hosts int) (*perfdb.Comm, error) {
	opt := compStatic()
	opt.SyncWorkers = p.Workers
	c, err := newSyncBenchCluster(p, hosts, opt)
	if err != nil {
		return nil, err
	}
	defer c.close()
	tr := trace.New(trace.Config{Label: "syncbench comm probe"})
	recs := make([]*trace.Recorder, hosts)
	for h := 0; h < hosts; h++ {
		recs[h] = tr.Recorder(h)
		c.gs[h].SetRecorder(recs[h])
	}
	for round := 0; round < commProbeRounds; round++ {
		for _, rec := range recs {
			rec.SetRound(int32(round))
		}
		if round%3 == 2 {
			// Silent round: the fields converged, no host ships. A barrier
			// span marks the round's existence so the ledger charges every
			// channel one round of invariant savings.
			for _, rec := range recs {
				rec.Emit(trace.Event{Start: rec.Now(), Dur: 1, Phase: trace.PhaseBarrier, Peer: -1})
			}
			continue
		}
		c.markUpdates(round + 1)
		if err := c.syncAll(); err != nil {
			return nil, err
		}
	}
	ledger := trace.LedgerOf(tr)
	if ledger.Rounds == 0 || ledger.ShippedBytes == 0 {
		return nil, errors.New("bench: comm probe recorded no attributable rounds")
	}
	counters := ledger.Counters()
	return &perfdb.Comm{
		BytesPerRound:      counters.BytesPerRound,
		CompressionRatio:   counters.CompressionRatio,
		InvariantSkipShare: counters.InvariantSkipShare,
	}, nil
}

// guardTiers are the rows the guard measures: the three compression tiers
// — auto (compression off), comp-static (fixed threshold), comp-adaptive
// (CompressTuner policy) — plus the unopt reference wire format. Together
// they cover both wire formats, the whole compression decision surface,
// and all instrumented paths; the forced-encoding rows only vary payload
// layout.
var guardTiers = []string{"auto", "unopt", "comp-static", "comp-adaptive"}

// guardRetries is how many re-measure rounds rows over tolerance get. Five
// because the DEFLATE tiers' floors take longer to surface on a small
// machine, and a retry only ever lowers the estimate, so extra rounds
// trade guard latency for gate stability without ever masking a real
// regression.
const guardRetries = 5

// GuardSyncBench is the hot-path regression guard behind `make check`: it
// re-measures the guard tiers with tracing disabled (the default — no
// recorder attached), all in the same process (DESIGN.md §4.5, §4.9), and
// gates them with perfdb.CompareRatios against the newest sync-bench
// record in the history for the same graph and worker count. The ratio
// gate is machine-independent, so the baseline never needs replacing for
// hardware churn; allocation regressions hard-fail.
//
// Both the baseline and the guard measurement are min-over-reps (see
// measureReps), so a tight tol stays meaningful on a noisy machine. Rows
// that still exceed tol are re-measured, together with their host count's
// unopt reference, up to guardRetries times before the guard fails: a
// transient load spike clears on a later measurement, a real hot-path
// regression does not. Allocation regressions are deterministic, so
// retries never mask one. The guard appends its measurement to the
// history whatever the outcome — the trajectory must record regressions
// too.
func GuardSyncBench(w io.Writer, p Params, history string, tol float64) error {
	recs, _, err := perfdb.Read(history)
	if err != nil {
		return err
	}
	base, err := perfdb.SyncBaseline(recs, syncGraph(p), p.Workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host fingerprint:     %s\n", perfdb.Probe())
	fmt.Fprintf(w, "baseline fingerprint: %s (%s record of %s)\n",
		base.Fingerprint, base.Label, base.Time.Format(time.RFC3339))
	cur, err := SyncBenchTiers(p, []int{2, 8}, guardTiers)
	if err != nil {
		return err
	}
	row := func(name string) *perfdb.BenchResult {
		return &cur.Benchmarks[slices.IndexFunc(cur.Benchmarks, func(b perfdb.BenchResult) bool { return b.Name == name })]
	}
	for retry := 0; retry < guardRetries; retry++ {
		regs := perfdb.CompareRatios(base, cur, tol)
		if len(regs) == 0 {
			break
		}
		fmt.Fprintf(w, "re-measuring %d row(s) over tolerance (transient-load check %d/%d)\n",
			len(regs), retry+1, guardRetries)
		for _, reg := range regs {
			bad := row(reg.Name)
			names := []string{bad.Encoding}
			if bad.Encoding != perfdb.RefEncoding {
				names = append(names, perfdb.RefEncoding)
			}
			for _, name := range names {
				rp, err := SyncBenchTiers(p, []int{bad.Hosts}, []string{name})
				if err != nil {
					return err
				}
				nr := rp.Benchmarks[0]
				if cr := row(nr.Name); nr.NsPerOp < cr.NsPerOp {
					cr.NsPerOp, cr.NoiseNs = nr.NsPerOp, nr.NoiseNs
				}
				fmt.Fprintf(w, "  hosts=%d %s: %d ns/op\n", bad.Hosts, name, nr.NsPerOp)
			}
		}
	}
	if comm, err := CommProbe(p, 2); err == nil {
		cur.Comm = comm
	} else {
		fmt.Fprintf(w, "comm probe failed (history record carries timings only): %v\n", err)
	}
	cur.Label = perfdb.LabelGuard
	if err := perfdb.Append(history, cur); err != nil {
		return fmt.Errorf("bench: recording guard measurement: %w", err)
	}
	fmt.Fprintf(w, "recorded to %s (gluon-trace perf shows the trajectory)\n", history)
	perfdb.WriteRatioTable(w, base, cur)
	regs := perfdb.CompareRatios(base, cur, tol)
	if len(regs) == 0 {
		return nil
	}
	msg := "sync hot-path ratio regression vs baseline (opt/unopt, machine-independent):"
	for _, r := range regs {
		msg += "\n  " + r.String()
	}
	return errors.New(msg)
}
