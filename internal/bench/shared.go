package bench

import (
	"fmt"
	"time"

	"gluon/internal/bitset"
	"gluon/internal/engine/galois"
	"gluon/internal/engine/ligra"
	"gluon/internal/fields"
	"gluon/internal/graph"
)

// Shared-memory (single-host, no partitioning, no Gluon) runs of the
// engines, used by Table 4 to measure the overhead the distributed layer
// adds on one host — the paper's Ligra-vs-D-Ligra / Galois-vs-D-Galois
// comparison.

// RunShared runs the benchmark on the raw engine and returns the elapsed
// time. engine is "ligra" or "galois".
func RunShared(engine, benchmark string, w *Workload, p Params) (time.Duration, error) {
	g := w.CSR
	if benchmark == "cc" {
		_, g = w.Symmetrized()
	}
	start := time.Now()
	var err error
	switch engine {
	case "ligra":
		err = runSharedLigra(benchmark, g, w, p)
	case "galois":
		err = runSharedGalois(benchmark, g, w, p)
	default:
		err = fmt.Errorf("bench: unknown shared engine %q", engine)
	}
	return time.Since(start), err
}

func runSharedLigra(benchmark string, g *graph.CSR, w *Workload, p Params) error {
	switch benchmark {
	case "bfs":
		sharedLigraBFS(g, w.Source, p.Workers)
	case "sssp":
		sharedLigraSSSP(g, w.Source, p.Workers)
	case "cc":
		sharedLigraCC(g, p.Workers)
	case "pr":
		sharedPR(g, p.PRTolerance, p.PRMaxIters, p.Workers)
	default:
		return fmt.Errorf("bench: unknown benchmark %q", benchmark)
	}
	return nil
}

func runSharedGalois(benchmark string, g *graph.CSR, w *Workload, p Params) error {
	switch benchmark {
	case "bfs":
		sharedGaloisLabelProp(g, initSourceLabels(g, w.Source), p.Workers, stepHop)
	case "sssp":
		sharedGaloisLabelProp(g, initSourceLabels(g, w.Source), p.Workers, stepWeight)
	case "cc":
		sharedGaloisLabelProp(g, initGIDLabels(g), p.Workers, stepNone)
	case "pr":
		sharedPR(g, p.PRTolerance, p.PRMaxIters, p.Workers)
	default:
		return fmt.Errorf("bench: unknown benchmark %q", benchmark)
	}
	return nil
}

func initSourceLabels(g *graph.CSR, source uint32) []uint32 {
	labels := make([]uint32, g.NumNodes())
	for i := range labels {
		labels[i] = fields.InfinityU32
	}
	labels[source] = 0
	return labels
}

func initGIDLabels(g *graph.CSR) []uint32 {
	labels := make([]uint32, g.NumNodes())
	for i := range labels {
		labels[i] = uint32(i)
	}
	return labels
}

func sharedLigraBFS(g *graph.CSR, source uint32, workers int) []uint32 {
	lg := ligra.NewGraph(g, g.Transpose())
	dist := initSourceLabels(g, source)
	frontier := bitset.New(g.NumNodes())
	frontier.Set(source)
	for frontier.Any() {
		frontier = ligra.EdgeMap(lg, frontier, ligra.EdgeMapConfig{
			Workers: workers,
			Cond:    func(d uint32) bool { return fields.AtomicLoadU32(&dist[d]) == fields.InfinityU32 },
			Push: func(s, d, wt uint32) bool {
				ds := fields.AtomicLoadU32(&dist[s])
				if ds == fields.InfinityU32 {
					return false
				}
				return fields.AtomicMinU32(&dist[d], ds+1)
			},
			Pull: func(d, s, wt uint32) bool {
				if dist[s] != fields.InfinityU32 && dist[d] > dist[s]+1 {
					dist[d] = dist[s] + 1
					return true
				}
				return false
			},
		})
	}
	return dist
}

func sharedLigraSSSP(g *graph.CSR, source uint32, workers int) []uint32 {
	lg := ligra.NewGraph(g, nil)
	dist := initSourceLabels(g, source)
	frontier := bitset.New(g.NumNodes())
	frontier.Set(source)
	for frontier.Any() {
		frontier = ligra.EdgeMap(lg, frontier, ligra.EdgeMapConfig{
			Workers: workers,
			Push: func(s, d, wt uint32) bool {
				ds := fields.AtomicLoadU32(&dist[s])
				if ds == fields.InfinityU32 {
					return false
				}
				nd := ds + wt
				if nd < ds {
					nd = fields.InfinityU32 - 1
				}
				return fields.AtomicMinU32(&dist[d], nd)
			},
		})
	}
	return dist
}

func sharedLigraCC(g *graph.CSR, workers int) []uint32 {
	lg := ligra.NewGraph(g, g.Transpose())
	comp := initGIDLabels(g)
	frontier := bitset.New(g.NumNodes())
	frontier.SetAll()
	for frontier.Any() {
		frontier = ligra.EdgeMap(lg, frontier, ligra.EdgeMapConfig{
			Workers: workers,
			Push: func(s, d, wt uint32) bool {
				return fields.AtomicMinU32(&comp[d], fields.AtomicLoadU32(&comp[s]))
			},
			Pull: func(d, s, wt uint32) bool {
				cs := fields.AtomicLoadU32(&comp[s])
				if cs < comp[d] {
					fields.AtomicStoreU32(&comp[d], cs)
					return true
				}
				return false
			},
		})
	}
	return comp
}

// stepKind selects how a label advances across an edge.
type stepKind int

const (
	stepHop    stepKind = iota // bfs: label+1
	stepWeight                 // sssp: label+weight
	stepNone                   // cc: label unchanged
)

// sharedGaloisLabelProp runs the asynchronous worklist engine to full
// quiescence in one do_all (no rounds at all on shared memory), with
// duplicate scheduling suppressed by a scheduled-bit set.
func sharedGaloisLabelProp(g *graph.CSR, labels []uint32, workers int, step stepKind) []uint32 {
	e := galois.New(g, workers)
	initial := make([]uint32, 0, 64)
	inWL := bitset.New(g.NumNodes())
	for u := uint32(0); u < g.NumNodes(); u++ {
		if labels[u] != fields.InfinityU32 {
			initial = append(initial, u)
			inWL.SetUnsync(u)
		}
	}
	e.DoAll(initial, func(e *galois.Engine, u uint32, push func(uint32)) {
		inWL.Clear(u)
		lu := fields.AtomicLoadU32(&labels[u])
		if lu == fields.InfinityU32 {
			return
		}
		nbrs := e.Graph.Neighbors(u)
		ws := e.Graph.EdgeWeights(u)
		for i, d := range nbrs {
			nl := lu
			switch step {
			case stepHop:
				nl = lu + 1
			case stepWeight:
				nl = lu + ws[i]
				if nl < lu {
					nl = fields.InfinityU32 - 1
				}
			}
			if fields.AtomicMinU32(&labels[d], nl) && inWL.TestAndSet(d) {
				push(d)
			}
		}
	})
	return labels
}

// sharedPR is the engine-independent pull pagerank on one CSR.
func sharedPR(g *graph.CSR, tol float64, maxIters, workers int) []float64 {
	if tol <= 0 {
		tol = 1e-6
	}
	if maxIters <= 0 {
		maxIters = 100
	}
	const alpha = 0.85
	in := g.Transpose()
	n := g.NumNodes()
	outdeg := make([]float64, n)
	for u := uint32(0); u < n; u++ {
		outdeg[u] = float64(g.OutDegree(u))
	}
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 - alpha
	}
	next := make([]float64, n)
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for v := uint32(0); v < n; v++ {
			var sum float64
			for _, u := range in.Neighbors(v) {
				if outdeg[u] > 0 {
					sum += rank[u] / outdeg[u]
				}
			}
			next[v] = (1 - alpha) + alpha*sum
			if d := next[v] - rank[v]; d > tol || d < -tol {
				changed = true
			}
		}
		rank, next = next, rank
		if !changed {
			break
		}
	}
	return rank
}
