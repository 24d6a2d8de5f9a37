package main

import (
	"fmt"
	"math"
	"time"

	"gluon/internal/algorithms/pr"
	"gluon/internal/fields"
	"gluon/internal/ref"
)

// prTolerance is the largest accepted |got-want| / max(1, |want|) of a
// PageRank value. Hosts sum contributions in another order than the
// single-threaded reference, so results differ by float reassociation
// only, orders of magnitude below this bound.
const prTolerance = 1e-9

// answer is the reference solution of one job, computed with internal/ref
// outside the timed region.
type answer struct {
	dist []uint32  // bfs and sssp
	rank []float64 // pagerank
	// traversed is the edge count of the job: out-edges of reached
	// vertices for a traversal, |E| per round for PageRank.
	traversed uint64
	// solve is the wall time of the single-threaded reference solve.
	solve time.Duration
}

// solveRef computes the reference answer of one job of the given
// algorithm ("bfs", "sssp" or "pr"; rounds applies to pr only).
func solveRef(alg string, in *input, source uint64, rounds int) (*answer, error) {
	a := &answer{}
	start := time.Now()
	switch alg {
	case "bfs":
		a.dist = ref.BFS(in.csr, uint32(source))
	case "sssp":
		a.dist = ref.SSSP(in.csr, uint32(source))
	case "pr":
		// tol 0 never stops early before the round cap, like the
		// distributed program's unreachable tolerance.
		a.rank = ref.PageRank(in.csr, pr.Alpha, 0, rounds)
	default:
		return nil, fmt.Errorf("no reference for algorithm %q", alg)
	}
	a.solve = time.Since(start)
	if a.rank != nil {
		a.traversed = uint64(len(in.edges)) * uint64(rounds)
	}
	for v, d := range a.dist {
		if d != fields.InfinityU32 {
			a.traversed += uint64(in.outDeg[v])
		}
	}
	return a, nil
}

// check compares a job's gathered values with the reference: distances
// must match exactly, ranks within prTolerance.
func (a *answer) check(got []float64) error {
	n := len(a.dist) + len(a.rank)
	if len(got) != n {
		return fmt.Errorf("got %d values, want %d", len(got), n)
	}
	for v, d := range a.dist {
		if got[v] != float64(d) {
			return fmt.Errorf("vertex %d: distance %v, want %d", v, got[v], d)
		}
	}
	for v, want := range a.rank {
		// Negated so that a NaN rank fails too.
		if !(math.Abs(got[v]-want) <= prTolerance*math.Max(1, math.Abs(want))) {
			return fmt.Errorf("vertex %d: rank %.17g, want %.17g (tolerance %g)", v, got[v], want, prTolerance)
		}
	}
	return nil
}
