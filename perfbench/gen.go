package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"gluon/internal/graph"
)

// Graph500 R-MAT initiator probabilities; d = 1 - a - b - c = 0.05.
const (
	rmatA = 0.57
	rmatB = 0.19
	rmatC = 0.19
)

// maxWeight bounds edge weights: weighted inputs draw them from [1, maxWeight].
const maxWeight = 100

// Stream salts keep the edge, weight and source draws independent.
const (
	saltEdge   = 0x6a09e667f3bcc908
	saltWeight = 0xbb67ae8584caa73b
	saltSource = 0x3c6ef372fe94f82b
)

// mix is the splitmix64 finalizer: a bijective avalanche of x.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// counterRNG is a splitmix64 stream whose state is derived from
// (seed, salt, index) alone, so the draws for one index never depend on
// the draws made before it.
type counterRNG uint64

func newCounterRNG(seed, salt, index uint64) counterRNG {
	return counterRNG(mix(seed^salt) ^ mix(index+0x9e3779b97f4a7c15))
}

func (r *counterRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return mix(uint64(*r))
}

// float returns a uniform float64 in [0, 1).
func (r *counterRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// input is one generated graph, held as the edge list a user hands the
// partitioner, plus what the oracle needs.
type input struct {
	scale, edgeFactor uint
	seed              uint64
	weighted          bool
	numNodes          uint64
	edges             []graph.Edge
	outDeg, inDeg     []uint32
	// csr is the whole graph over global IDs, for the reference solvers.
	csr *graph.CSR
}

// rmatEdge returns edge i of the R-MAT graph of the given scale: a pure
// function of (seed, scale, i, weighted).
func rmatEdge(seed uint64, scale uint, i uint64, weighted bool) graph.Edge {
	r := newCounterRNG(seed, saltEdge, i)
	var src, dst uint64
	for level := uint(0); level < scale; level++ {
		x := r.float()
		switch {
		case x < rmatA:
		case x < rmatA+rmatB:
			dst |= 1 << level
		case x < rmatA+rmatB+rmatC:
			src |= 1 << level
		default:
			src |= 1 << level
			dst |= 1 << level
		}
	}
	e := graph.Edge{Src: src, Dst: dst}
	if weighted {
		w := newCounterRNG(seed, saltWeight, i)
		e.Weight = 1 + uint32(w.next()%maxWeight)
	}
	return e
}

// generate builds the R-MAT input of 2^scale nodes and edgeFactor·2^scale
// edges. Every edge is a pure function of its index, so the bytes depend on
// nothing but the arguments. Self-loops and duplicate edges are kept, as
// R-MAT emits them.
func generate(scale, edgeFactor uint, seed uint64, weighted bool) (*input, error) {
	n := uint64(1) << scale
	m := n * uint64(edgeFactor)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = rmatEdge(seed, scale, uint64(i), weighted)
	}

	in := &input{
		scale: scale, edgeFactor: edgeFactor, seed: seed, weighted: weighted,
		numNodes: n, edges: edges,
		outDeg: make([]uint32, n), inDeg: make([]uint32, n),
	}
	for _, e := range edges {
		in.outDeg[e.Src]++
		in.inDeg[e.Dst]++
	}
	csr, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		return nil, fmt.Errorf("build reference graph: %w", err)
	}
	in.csr = csr
	return in, nil
}

// fingerprint identifies an input: two runs that print the same
// fingerprint measured the same graph.
type fingerprint struct {
	Nodes        uint64 `json:"nodes"`
	Edges        uint64 `json:"edges"`
	Weighted     bool   `json:"weighted"`
	Hash         string `json:"sha256"`
	MaxInDegree  uint32 `json:"max_in_degree"`
	MaxOutDegree uint32 `json:"max_out_degree"`
}

func (in *input) fingerprint() fingerprint {
	h := sha256.New()
	var buf [20]byte
	for _, e := range in.edges {
		binary.LittleEndian.PutUint64(buf[0:], e.Src)
		binary.LittleEndian.PutUint64(buf[8:], e.Dst)
		binary.LittleEndian.PutUint32(buf[16:], e.Weight)
		h.Write(buf[:])
	}
	fp := fingerprint{
		Nodes: in.numNodes, Edges: uint64(len(in.edges)), Weighted: in.weighted,
		Hash: hex.EncodeToString(h.Sum(nil))[:16],
	}
	for v := range in.outDeg {
		fp.MaxOutDegree = max(fp.MaxOutDegree, in.outDeg[v])
		fp.MaxInDegree = max(fp.MaxInDegree, in.inDeg[v])
	}
	return fp
}

func (f fingerprint) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d weighted=%t sha256=%s max_in=%d max_out=%d",
		f.Nodes, f.Edges, f.Weighted, f.Hash, f.MaxInDegree, f.MaxOutDegree)
}

// sources draws k distinct query sources with out-degree at least one,
// as a pure function of the seed.
func (in *input) sources(k int) ([]uint64, error) {
	var out []uint64
	seen := make(map[uint64]bool, k)
	for i := uint64(0); len(out) < k; i++ {
		if i > 64*uint64(k)+in.numNodes {
			return nil, fmt.Errorf("only %d of %d sources have out-edges", len(out), k)
		}
		r := newCounterRNG(in.seed, saltSource, i)
		v := r.next() % in.numNodes
		if in.outDeg[v] == 0 || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}
