package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// smallRunner sets up workload w on a scale-10 input with a short batch.
func smallRunner(t *testing.T, name string, batch int) *runner {
	t.Helper()
	return scaledRunner(t, name, batch, 10)
}

// scaledRunner sets up workload w on an R-MAT input of the given scale and
// edge factor 8, with a short batch.
func scaledRunner(t *testing.T, name string, batch int, scale uint) *runner {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.batch = batch
	in, err := generate(scale, 8, 9, w.alg == "sssp")
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(w, in)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	if _, err := r.setup(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestOracleAcceptsCorrectAndRejectsCorrupt: every workload's real answer
// passes, and the same answer with one value changed fails.
func TestOracleAcceptsCorrectAndRejectsCorrupt(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := smallRunner(t, w.name, 2)
			src := r.sources[1]
			o := r.run(src)
			if err := r.check(o, src); err != nil {
				t.Fatalf("correct answer rejected: %v", err)
			}
			v := len(o.res.Values) / 2
			o.res.Values[v]++
			if err := r.check(o, src); err == nil {
				t.Fatalf("answer with vertex %d off by one accepted", v)
			}
		})
	}
}

// TestPageRankTolerance: rank differences below prTolerance pass, larger
// ones and NaN fail, as does an answer of the wrong length.
func TestPageRankTolerance(t *testing.T) {
	a := &answer{rank: []float64{0.15, 2.5}}
	cases := []struct {
		got []float64
		ok  bool
	}{
		{[]float64{0.15, 2.5}, true},
		{[]float64{0.15 + 1e-12, 2.5 * (1 + 1e-12)}, true},
		{[]float64{0.15 + 1e-6, 2.5}, false},
		{[]float64{0.15, 2.5 * (1 + 1e-8)}, false},
		{[]float64{math.NaN(), 2.5}, false},
		{[]float64{0.15}, false},
	}
	for _, c := range cases {
		if err := a.check(c.got); (err == nil) != c.ok {
			t.Errorf("check(%v) = %v, want ok=%t", c.got, err, c.ok)
		}
	}
}

// TestWrongAnswersCountAsFailures: with a corrupted reference every job
// of the run fails, and each failure names workload, job and source.
func TestWrongAnswersCountAsFailures(t *testing.T) {
	r := smallRunner(t, "bfs-queries", 3)
	for _, a := range r.answers {
		a.dist[0] ^= 1
	}
	var out bytes.Buffer
	m := r.measure(&out, time.Millisecond, false)
	if m.attempted == 0 || m.failed != m.attempted {
		t.Fatalf("%d of %d jobs failed, want all", m.failed, m.attempted)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != m.failed {
		t.Fatalf("%d FAIL lines for %d failures", len(lines), m.failed)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "FAIL workload=bfs-queries job=") || !strings.Contains(l, " source=") {
			t.Fatalf("failure line %q does not name workload, job and source", l)
		}
	}
}
