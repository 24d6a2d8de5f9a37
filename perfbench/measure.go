package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// measurement is what one run's jobs produced.
type measurement struct {
	attempted, failed int
	walls             []float64 // untraced job wall times, s
	tracedWalls       []float64
	// Per untraced batch: the sum of its job wall times and the CPU time
	// per job, s.
	batches, batchCPUs []float64
	traversed          uint64    // edges traversed by the untraced timed jobs
	firstBatchBytes    []float64 // Result.TotalCommBytes of the first batch
	commVaried         int       // repeated jobs whose comm bytes differed
	// Traced run: per-layer values per job, sums of the counts behind
	// ratios, hub creation times, the spans, and the runtime.MemStats
	// deltas of its untraced jobs.
	layers  map[string][]float64
	sum     map[string]float64
	hubDial []float64
	spans   []span
}

// measure runs the closed loop: one client, each job starting when the
// previous one returned. Jobs run in whole batches until the time is up;
// a traced run alternates untraced and traced batches, at least one each.
func (r *runner) measure(out io.Writer, d time.Duration, traced bool) *measurement {
	m := &measurement{layers: map[string][]float64{}, sum: map[string]float64{}}
	commBytes := map[uint64]uint64{}
	verify := func(id int, src uint64, o outcome) bool {
		m.attempted++
		if err := r.check(o, src); err != nil {
			m.failed++
			fmt.Fprintf(out, "FAIL workload=%s job=%d source=%d: %v\n", r.w.name, id, src, err)
			return false
		}
		return true
	}
	// Warm-up: one checked, untimed job, so lazy set-up is not timed.
	verify(0, r.sources[0], r.run(r.sources[0]))
	id := 1
	deadline := time.Now().Add(d)
	for b := 0; b == 0 || time.Now().Before(deadline) || (traced && b < 2); b++ {
		tracedBatch := traced && b%2 == 1
		var batch, cpu time.Duration
		jobs := 0
		for _, src := range r.sources {
			var o outcome
			var m0, m1 runtime.MemStats
			switch {
			case tracedBatch:
				o = r.runTraced(id, src)
			case traced:
				// MemStats are read outside the timed call, around an
				// untraced job, so the tracer's own allocations are not
				// counted.
				runtime.ReadMemStats(&m0)
				o = r.run(src)
				runtime.ReadMemStats(&m1)
			default:
				o = r.run(src)
			}
			ok := verify(id, src, o)
			id++
			if !ok {
				continue
			}
			if tracedBatch {
				m.addTraced(o)
				continue
			}
			if traced {
				m.addMem(&m0, &m1)
			}
			m.walls = append(m.walls, o.wall.Seconds())
			jobs++
			batch += o.wall
			cpu += o.cpu
			m.traversed += r.answers[src].traversed
			if prev, seen := commBytes[src]; !seen {
				commBytes[src] = o.res.TotalCommBytes
			} else if prev != o.res.TotalCommBytes {
				m.commVaried++
			}
			if b == 0 {
				m.firstBatchBytes = append(m.firstBatchBytes, float64(o.res.TotalCommBytes))
			}
		}
		if !tracedBatch && jobs > 0 {
			m.batches = append(m.batches, batch.Seconds())
			m.batchCPUs = append(m.batchCPUs, cpu.Seconds()/float64(jobs))
		}
	}
	return m
}

func (m *measurement) addTraced(o outcome) {
	m.tracedWalls = append(m.tracedWalls, o.wall.Seconds())
	for k, v := range o.layers.vals {
		m.layers[k] = append(m.layers[k], v)
	}
	for _, k := range []string{"gluon.msgs", "gluon.msgs.empty", "engine.frontier", "engine.updated"} {
		m.sum[k] += o.layers.vals[k]
	}
	if o.dial > 0 {
		m.hubDial = append(m.hubDial, o.dial.Seconds())
	}
	for _, h := range o.jt.hosts {
		m.spans = append(m.spans, h.spans...)
	}
}

// addMem records the runtime.MemStats deltas of one untraced job.
func (m *measurement) addMem(before, after *runtime.MemStats) {
	m.layers["proc.allocs_per_job"] = append(m.layers["proc.allocs_per_job"], float64(after.Mallocs-before.Mallocs))
	m.layers["proc.alloc_mb_per_job"] = append(m.layers["proc.alloc_mb_per_job"], float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	m.layers["proc.gc_per_job"] = append(m.layers["proc.gc_per_job"], float64(after.NumGC-before.NumGC))
}
