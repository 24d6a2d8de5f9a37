package ligra

import (
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/fields"
	"gluon/internal/generate"
	"gluon/internal/graph"
	"gluon/internal/ref"
)

func rmatCSR(t testing.TB, scale uint) *graph.CSR {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: scale, EdgeFactor: 8, Seed: 33}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bfsWith runs a full BFS through EdgeMap with the given dense threshold
// (negative forces pure push by disabling Pull).
func bfsWith(g *Graph, source uint32, threshold float64, pull bool) []uint32 {
	dist := make([]uint32, g.Out.NumNodes())
	for i := range dist {
		dist[i] = fields.InfinityU32
	}
	dist[source] = 0
	frontier := bitset.New(g.Out.NumNodes())
	frontier.Set(source)
	cfg := EdgeMapConfig{
		Workers:        4,
		DenseThreshold: threshold,
		Cond:           func(d uint32) bool { return fields.AtomicLoadU32(&dist[d]) == fields.InfinityU32 },
		Push: func(s, d, w uint32) bool {
			return fields.AtomicMinU32(&dist[d], fields.AtomicLoadU32(&dist[s])+1)
		},
	}
	if pull {
		cfg.Pull = func(d, s, w uint32) bool {
			if dist[s] != fields.InfinityU32 && dist[d] > dist[s]+1 {
				dist[d] = dist[s] + 1
				return true
			}
			return false
		}
	}
	for frontier.Any() {
		frontier = EdgeMap(g, frontier, cfg)
	}
	return dist
}

// TestPushPullEquivalence: BFS results are identical whether edgeMap runs
// pure push, pure pull-when-possible, or the hybrid direction optimizer,
// and all match sequential BFS.
func TestPushPullEquivalence(t *testing.T) {
	csr := rmatCSR(t, 10)
	source := csr.MaxOutDegreeNode()
	want := ref.BFS(csr, source)

	gPushOnly := NewGraph(csr, nil)
	gBoth := NewGraph(csr, csr.Transpose())

	push := bfsWith(gPushOnly, source, 0, false)
	hybrid := bfsWith(gBoth, source, 0, true)        // Ligra default 1/20
	denseHappy := bfsWith(gBoth, source, 1e-9, true) // dense almost always

	for u := range want {
		if push[u] != want[u] {
			t.Fatalf("push: node %d = %d, want %d", u, push[u], want[u])
		}
		if hybrid[u] != want[u] {
			t.Fatalf("hybrid: node %d = %d, want %d", u, hybrid[u], want[u])
		}
		if denseHappy[u] != want[u] {
			t.Fatalf("dense: node %d = %d, want %d", u, denseHappy[u], want[u])
		}
	}
}

func TestEdgeMapEmptyFrontier(t *testing.T) {
	g := NewGraph(rmatCSR(t, 8), nil)
	next := EdgeMap(g, bitset.New(g.Out.NumNodes()), EdgeMapConfig{
		Push: func(s, d, w uint32) bool { t.Fatal("push called"); return false },
	})
	if next.Any() {
		t.Fatal("empty frontier produced output")
	}
	if next := EdgeMap(g, nil, EdgeMapConfig{}); next.Any() {
		t.Fatal("nil frontier produced output")
	}
}

func TestVertexMapVisitsFrontierOnly(t *testing.T) {
	f := bitset.New(100)
	f.Set(3)
	f.Set(97)
	visited := map[uint32]bool{}
	VertexMap(f, 1, func(u uint32) { visited[u] = true })
	if len(visited) != 2 || !visited[3] || !visited[97] {
		t.Fatalf("visited %v", visited)
	}
}

func TestVertexFilter(t *testing.T) {
	f := bitset.New(50)
	for i := uint32(0); i < 50; i++ {
		f.Set(i)
	}
	kept := VertexFilter(f, 4, func(u uint32) bool { return u%5 == 0 })
	if kept.Count() != 10 {
		t.Fatalf("kept %d", kept.Count())
	}
}

// TestCondEarlyExit: in dense mode, scanning stops once Cond flips; the
// result must still be correct (first-writer wins in bfs terms).
func TestCondEarlyExit(t *testing.T) {
	// star-in graph: all nodes point at node 0.
	var edges []graph.LocalEdge
	const n = 64
	for i := uint32(1); i < n; i++ {
		edges = append(edges, graph.LocalEdge{Src: i, Dst: 0})
	}
	csr := graph.Build(n, edges, false)
	g := NewGraph(csr, csr.Transpose())

	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = fields.InfinityU32
	}
	frontier := bitset.New(n)
	for i := uint32(1); i < n; i++ {
		frontier.Set(i)
	}
	pulls := 0
	next := EdgeMap(g, frontier, EdgeMapConfig{
		Workers:        1,
		DenseThreshold: 1e-9, // force dense
		Cond:           func(d uint32) bool { return parent[d] == fields.InfinityU32 },
		Push:           func(s, d, w uint32) bool { panic("unused") },
		Pull: func(d, s, w uint32) bool {
			pulls++
			if parent[d] == fields.InfinityU32 {
				parent[d] = s
				return true
			}
			return false
		},
	})
	if !next.Test(0) || parent[0] == fields.InfinityU32 {
		t.Fatal("node 0 not claimed")
	}
	if pulls != 1 {
		t.Fatalf("pulled %d edges; early exit after first claim expected", pulls)
	}
}

func BenchmarkEdgeMapPush(b *testing.B) {
	csr := rmatCSR(b, 12)
	g := NewGraph(csr, nil)
	frontier := bitset.New(csr.NumNodes())
	for i := uint32(0); i < csr.NumNodes(); i += 16 {
		frontier.Set(i)
	}
	val := make([]uint32, csr.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeMap(g, frontier, EdgeMapConfig{
			Workers: 4,
			Push: func(s, d, w uint32) bool {
				fields.AtomicMinU32(&val[d], s)
				return false
			},
		})
	}
}
