// Package ligra implements a Ligra-style shared-memory engine: computation
// proceeds over a frontier of active vertices through edgeMap/vertexMap,
// with Ligra's signature direction optimization — sparse frontiers push
// along out-edges, dense frontiers pull along in-edges (Shun & Blelloch,
// PPoPP'13). Interfaced with Gluon this becomes D-Ligra.
//
// The engine is oblivious to distribution: it runs on whatever local CSR it
// is given (invariant (b) of the paper — all local edges connect local
// proxies), exactly how Gluon reuses shared-memory systems out of the box.
package ligra

import (
	"gluon/internal/bitset"
	"gluon/internal/graph"
	"gluon/internal/par"
)

// Graph bundles the out-CSR with its transpose for pull traversals.
type Graph struct {
	Out *graph.CSR
	In  *graph.CSR // required for pull mode; may be nil to disable pulling
}

// NewGraph pairs an out-CSR with its transpose; a nil in means push only.
// The transpose is the caller's to build and share, so a distributed job
// passes its partition's InGraph instead of rebuilding it.
func NewGraph(out, in *graph.CSR) *Graph { return &Graph{Out: out, In: in} }

// EdgeMapConfig configures one edgeMap application.
type EdgeMapConfig struct {
	// Push is invoked in sparse (push) mode for each edge (s, d, weight)
	// with s in the frontier. It must be thread-safe across destinations
	// (use CAS on the destination field) and return true when d became
	// active for the next frontier.
	Push func(s, d uint32, w uint32) bool
	// Pull is invoked in dense (pull) mode for each edge (d, s, weight)
	// with d any vertex passing Cond; only one goroutine touches a given d,
	// so no atomics are needed on d's field. It returns true when d became
	// active.
	// Nil disables direction optimization (always push).
	Pull func(d, s uint32, w uint32) bool
	// Cond filters destinations; nil means all pass. In pull mode,
	// scanning d's in-edges stops early once Cond(d) is false.
	Cond func(d uint32) bool
	// DenseThreshold is the fraction of |E| above which the frontier's
	// outgoing edge count triggers dense mode. 0 means Ligra's 1/20.
	DenseThreshold float64
	// Workers sizes the parallel loops; 0 means GOMAXPROCS.
	Workers int
}

// EdgeMap applies cfg over the frontier and returns the next frontier.
// It implements Ligra's direction optimization when cfg.Pull is available.
func EdgeMap(g *Graph, frontier *bitset.Bitset, cfg EdgeMapConfig) *bitset.Bitset {
	n := g.Out.NumNodes()
	next := bitset.New(n)
	if frontier == nil || !frontier.Any() {
		return next
	}
	useDense := false
	if cfg.Pull != nil && g.In != nil {
		threshold := cfg.DenseThreshold
		if threshold == 0 {
			threshold = 1.0 / 20.0
		}
		if float64(frontierEdges(g, frontier, cfg.Workers)) > threshold*float64(g.Out.NumEdges()) {
			useDense = true
		}
	}
	if useDense {
		edgeMapDense(g, frontier, next, cfg)
	} else {
		edgeMapSparse(g, frontier, next, cfg)
	}
	return next
}

// frontierEdges counts out-edges incident to the frontier, the quantity
// Ligra compares against |E|/20.
func frontierEdges(g *Graph, frontier *bitset.Bitset, workers int) uint64 {
	n := int(g.Out.NumNodes())
	return par.SumUint64(n, workers, func(lo, hi int) uint64 {
		var sum uint64
		for u := frontier.NextSet(uint32(lo)); u < uint32(hi); u = frontier.NextSet(u + 1) {
			sum += uint64(g.Out.OutDegree(u))
		}
		return sum
	})
}

func edgeMapSparse(g *Graph, frontier, next *bitset.Bitset, cfg EdgeMapConfig) {
	n := int(g.Out.NumNodes())
	par.Range(n, cfg.Workers, func(lo, hi int) {
		for s := frontier.NextSet(uint32(lo)); s < uint32(hi); s = frontier.NextSet(s + 1) {
			nbrs := g.Out.Neighbors(s)
			ws := g.Out.EdgeWeights(s)
			for i, d := range nbrs {
				if cfg.Cond != nil && !cfg.Cond(d) {
					continue
				}
				w := uint32(1)
				if ws != nil {
					w = ws[i]
				}
				if cfg.Push(s, d, w) {
					next.Set(d)
				}
			}
		}
	})
}

func edgeMapDense(g *Graph, frontier, next *bitset.Bitset, cfg EdgeMapConfig) {
	n := int(g.In.NumNodes())
	par.Range(n, cfg.Workers, func(lo, hi int) {
		for d := uint32(lo); d < uint32(hi); d++ {
			if cfg.Cond != nil && !cfg.Cond(d) {
				continue
			}
			nbrs := g.In.Neighbors(d)
			ws := g.In.EdgeWeights(d)
			became := false
			for i, s := range nbrs {
				if !frontier.Test(s) {
					continue
				}
				w := uint32(1)
				if ws != nil {
					w = ws[i]
				}
				if cfg.Pull(d, s, w) {
					became = true
				}
				if cfg.Cond != nil && !cfg.Cond(d) {
					break // early exit once d no longer accepts updates
				}
			}
			if became {
				next.Set(d)
			}
		}
	})
}

// VertexMap applies fn to every vertex in the frontier in parallel.
func VertexMap(frontier *bitset.Bitset, workers int, fn func(u uint32)) {
	n := int(frontier.Len())
	par.Range(n, workers, func(lo, hi int) {
		for u := frontier.NextSet(uint32(lo)); u < uint32(hi); u = frontier.NextSet(u + 1) {
			fn(u)
		}
	})
}

// VertexFilter returns the subset of the frontier passing keep.
func VertexFilter(frontier *bitset.Bitset, workers int, keep func(u uint32) bool) *bitset.Bitset {
	out := bitset.New(frontier.Len())
	n := int(frontier.Len())
	par.Range(n, workers, func(lo, hi int) {
		for u := frontier.NextSet(uint32(lo)); u < uint32(hi); u = frontier.NextSet(u + 1) {
			if keep(u) {
				out.Set(u)
			}
		}
	})
	return out
}
