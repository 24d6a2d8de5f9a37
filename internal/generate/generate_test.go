package generate

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"testing"

	"gluon/internal/graph"
)

func TestDeterminism(t *testing.T) {
	for _, kind := range []string{"rmat", "kron", "webcrawl", "twitterlike", "random"} {
		cfg := Config{Kind: kind, Scale: 10, EdgeFactor: 4, Seed: 123, Weighted: true}
		a, err := Edges(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ: %d vs %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: edge %d differs: %v vs %v", kind, i, a[i], b[i])
			}
		}
	}
}

// TestIndependentOfGOMAXPROCS: the edge list is a function of the config
// alone — the same seed yields the same bytes on a 1-core and a 4-core
// machine, so golden volumes hold on any host.
func TestIndependentOfGOMAXPROCS(t *testing.T) {
	digest := func(kind string) [sha256.Size]byte {
		edges, err := Edges(Config{Kind: kind, Scale: 10, EdgeFactor: 4, Seed: 123, Weighted: true})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		h := sha256.New()
		for _, e := range edges {
			binary.Write(h, binary.LittleEndian, e)
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		return sum
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, kind := range []string{"rmat", "kron", "webcrawl", "twitterlike", "random", "grid", "chain", "star"} {
		runtime.GOMAXPROCS(1)
		one := digest(kind)
		runtime.GOMAXPROCS(4)
		if four := digest(kind); four != one {
			t.Errorf("%s: edges at GOMAXPROCS=4 differ from GOMAXPROCS=1 (sha256 %x vs %x)", kind, four[:8], one[:8])
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := Edges(Config{Kind: "rmat", Scale: 10, EdgeFactor: 4, Seed: 1})
	b, _ := Edges(Config{Kind: "rmat", Scale: 10, EdgeFactor: 4, Seed: 2})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical edge lists")
	}
}

func TestNodeRangeAndCount(t *testing.T) {
	for _, kind := range []string{"rmat", "kron", "webcrawl", "twitterlike", "random"} {
		cfg := Config{Kind: kind, Scale: 9, EdgeFactor: 8, Seed: 7}
		edges, err := Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(edges)) != cfg.NumEdges() {
			t.Fatalf("%s: %d edges, want %d", kind, len(edges), cfg.NumEdges())
		}
		n := cfg.NumNodes()
		for _, e := range edges {
			if e.Src >= n || e.Dst >= n {
				t.Fatalf("%s: edge (%d,%d) out of range n=%d", kind, e.Src, e.Dst, n)
			}
		}
	}
}

func TestWeights(t *testing.T) {
	cfg := Config{Kind: "random", Scale: 10, EdgeFactor: 4, Seed: 3, Weighted: true, MaxWeight: 50}
	edges, err := Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, e := range edges {
		if e.Weight < 1 || e.Weight > 50 {
			t.Fatalf("weight %d out of [1,50]", e.Weight)
		}
		seen[e.Weight] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct weights; generator looks broken", len(seen))
	}
}

func TestUnweightedHasZeroWeights(t *testing.T) {
	edges, err := Edges(Config{Kind: "random", Scale: 8, EdgeFactor: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if e.Weight != 0 {
			t.Fatal("unweighted generation produced weights")
		}
	}
}

func TestChain(t *testing.T) {
	edges, err := Edges(Config{Kind: "chain", Scale: 4, EdgeFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 15 {
		t.Fatalf("chain(16) has %d edges", len(edges))
	}
	for i, e := range edges {
		if e.Src != uint64(i) || e.Dst != uint64(i+1) {
			t.Fatalf("chain edge %d = %v", i, e)
		}
	}
}

func TestStar(t *testing.T) {
	edges, err := Edges(Config{Kind: "star", Scale: 5, EdgeFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 31 {
		t.Fatalf("star(32) has %d edges", len(edges))
	}
	for _, e := range edges {
		if e.Src != 0 {
			t.Fatalf("star edge source %d != 0", e.Src)
		}
	}
}

func TestGridIsSymmetricMesh(t *testing.T) {
	cfg := Config{Kind: "grid", Scale: 8} // 16x16
	edges, err := Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 directions * (side*(side-1)) horizontal + same vertical.
	side := 16
	want := 2 * 2 * side * (side - 1)
	if len(edges) != want {
		t.Fatalf("grid edges = %d, want %d", len(edges), want)
	}
	// Every edge has its reverse.
	set := map[graph.Edge]bool{}
	for _, e := range edges {
		set[graph.Edge{Src: e.Src, Dst: e.Dst}] = true
	}
	for _, e := range edges {
		if !set[graph.Edge{Src: e.Dst, Dst: e.Src}] {
			t.Fatalf("grid missing reverse of %v", e)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := Edges(Config{Kind: "nope", Scale: 4}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestSkewShapes verifies the degree-skew intent of the crawl generators:
// webcrawl has a heavier in-degree tail than out-degree; twitterlike the
// reverse (compare the paper's Table 1: clueweb12 max-Din 75M vs max-Dout
// 7447; twitter40 max-Dout 2.99M vs max-Din 0.77M).
func TestSkewShapes(t *testing.T) {
	build := func(kind string) graph.Properties {
		cfg := Config{Kind: kind, Scale: 13, EdgeFactor: 16, Seed: 11}
		edges, err := Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
		if err != nil {
			t.Fatal(err)
		}
		return g.Stats()
	}
	wc := build("webcrawl")
	if wc.MaxInDeg <= wc.MaxOutDeg {
		t.Errorf("webcrawl: max in-degree %d not above max out-degree %d", wc.MaxInDeg, wc.MaxOutDeg)
	}
	tw := build("twitterlike")
	if tw.MaxOutDeg <= tw.MaxInDeg {
		t.Errorf("twitterlike: max out-degree %d not above max in-degree %d", tw.MaxOutDeg, tw.MaxInDeg)
	}
}

// TestRMATSkew checks the rmat generator produces a hub (graph500
// initiator matrices concentrate edges heavily).
func TestRMATSkew(t *testing.T) {
	cfg := Config{Kind: "rmat", Scale: 12, EdgeFactor: 16, Seed: 5}
	edges, _ := Edges(cfg)
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if float64(s.MaxOutDeg) < 8*s.AvgDegree {
		t.Errorf("rmat max out-degree %d vs avg %.1f: no skew", s.MaxOutDeg, s.AvgDegree)
	}
}

func TestRNGUint64n(t *testing.T) {
	r := newRNG(9)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n(7) = %d", v)
		}
	}
	// Rough uniformity over a small modulus.
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[r.Uint64n(4)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Uint64n(4) bucket %d count %d far from uniform", i, c)
		}
	}
}

func BenchmarkRMAT(b *testing.B) {
	cfg := Config{Kind: "rmat", Scale: 14, EdgeFactor: 16, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Edges(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWebcrawl(b *testing.B) {
	cfg := Config{Kind: "webcrawl", Scale: 14, EdgeFactor: 16, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Edges(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
