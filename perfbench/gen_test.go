package main

import (
	"runtime"
	"testing"
)

// TestGeneratorIndependentOfGOMAXPROCS: the same seed gives the same bytes
// whatever GOMAXPROCS is, so a run on another machine measures the same
// graph.
func TestGeneratorIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *input
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		in, err := generate(12, 8, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = in
			continue
		}
		if got, w := in.fingerprint(), want.fingerprint(); got != w {
			t.Fatalf("GOMAXPROCS=%d: fingerprint %v, want %v", procs, got, w)
		}
		for i := range in.edges {
			if in.edges[i] != want.edges[i] {
				t.Fatalf("GOMAXPROCS=%d: edge %d = %+v, want %+v", procs, i, in.edges[i], want.edges[i])
			}
		}
	}
}

// TestEdgeIsFunctionOfSeedAndIndex: edge i is rmatEdge(seed, i), weights
// lie in [1, maxWeight], and another seed gives another graph.
func TestEdgeIsFunctionOfSeedAndIndex(t *testing.T) {
	in, err := generate(10, 4, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range in.edges {
		if e != rmatEdge(3, 10, uint64(i), true) {
			t.Fatalf("edge %d differs from rmatEdge", i)
		}
		if e.Weight < 1 || e.Weight > maxWeight {
			t.Fatalf("edge %d: weight %d outside [1, %d]", i, e.Weight, maxWeight)
		}
	}
	other, err := generate(10, 4, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if in.fingerprint().Hash == other.fingerprint().Hash {
		t.Fatal("seeds 3 and 4 gave the same graph")
	}
	unweighted, err := generate(10, 4, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range unweighted.edges {
		if e.Src != in.edges[i].Src || e.Dst != in.edges[i].Dst || e.Weight != 0 {
			t.Fatalf("edge %d: weights changed the topology or leaked into an unweighted input", i)
		}
	}
}

// TestGeneratorSkew: the graph has the heavy degree tail of Graph500
// R-MAT, not a uniform random graph's.
func TestGeneratorSkew(t *testing.T) {
	in, err := generate(14, 16, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	fp := in.fingerprint()
	if fp.Nodes != 1<<14 || fp.Edges != 16<<14 {
		t.Fatalf("size %d nodes %d edges", fp.Nodes, fp.Edges)
	}
	if fp.MaxOutDegree < 50*16 || fp.MaxInDegree < 50*16 {
		t.Fatalf("max degrees in=%d out=%d: no R-MAT skew", fp.MaxInDegree, fp.MaxOutDegree)
	}
}

// TestSources: sources are distinct, have out-edges, and depend only on
// the seed.
func TestSources(t *testing.T) {
	in, err := generate(10, 4, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := in.sources(100)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := in.sources(100)
	seen := map[uint64]bool{}
	for i, s := range a {
		if s != b[i] {
			t.Fatalf("source %d: %d then %d", i, s, b[i])
		}
		if seen[s] || in.outDeg[s] == 0 {
			t.Fatalf("source %d (%d) repeated or without out-edges", i, s)
		}
		seen[s] = true
	}
	if _, err := in.sources(int(in.numNodes)); err == nil {
		t.Fatal("drawing more sources than vertices with out-edges succeeded")
	}
}
