package perfdb

// Ratio-gate coverage with synthetic records: the gate must be invariant
// to uniform machine-speed drift (the failure mode that forced repeated
// re-pins of absolute baselines) while still catching a same-process
// slowdown of an optimized tier, and the baseline must come from the right
// record.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// synthRecord builds a sync-bench record; ns maps "h=<hosts>/<enc>" to
// ns/op, with 1% recorded noise and the allocs the real tiers show.
func synthRecord(fp Fingerprint, ns map[string]int64, allocs map[string]int64) *Record {
	rec := &Record{
		Label:         LabelBench,
		Graph:         "rmat scale=12 ef=8 seed=7 cvc",
		Fingerprint:   fp,
		FingerprintID: fp.ID(),
	}
	for _, row := range []struct {
		hosts int
		enc   string
	}{
		{2, "auto"}, {2, "unopt"}, {2, "comp-static"}, {2, "comp-adaptive"},
		{8, "auto"}, {8, "unopt"}, {8, "comp-static"}, {8, "comp-adaptive"},
	} {
		key := fmt.Sprintf("h=%d/%s", row.hosts, row.enc)
		v, ok := ns[key]
		if !ok {
			continue
		}
		a := int64(26)
		if av, ok := allocs[key]; ok {
			a = av
		}
		rec.Benchmarks = append(rec.Benchmarks, BenchResult{
			Name: "sync/" + key, Hosts: row.hosts, Encoding: row.enc,
			NsPerOp: v, BytesPerOp: 2048, AllocsPerOp: a,
			NoiseNs: v / 100, Reps: 8,
		})
	}
	return rec
}

var synthNs = map[string]int64{
	"h=2/auto": 21000, "h=2/unopt": 37000, "h=2/comp-static": 48000, "h=2/comp-adaptive": 49000,
	"h=8/auto": 90000, "h=8/unopt": 160000, "h=8/comp-static": 200000, "h=8/comp-adaptive": 205000,
}

func scaleNs(ns map[string]int64, num, den int64) map[string]int64 {
	out := make(map[string]int64, len(ns))
	for k, v := range ns {
		out[k] = v * num / den
	}
	return out
}

func regNames(regs []Regression) string {
	var names []string
	for _, r := range regs {
		names = append(names, r.String())
	}
	return strings.Join(names, "\n")
}

// TestCompareSyncRatiosMachineDrift: a machine 2× as fast (or 2× as slow)
// halves/doubles every row; the ratios cancel the drift, so the gate holds
// with no new baseline.
func TestCompareSyncRatiosMachineDrift(t *testing.T) {
	fpA := Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	fpB := Fingerprint{CPUModel: "New Epyc", Cores: 32, GOMAXPROCS: 32, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthRecord(fpA, synthNs, nil)
	for _, scale := range []struct {
		name     string
		num, den int64
	}{{"2x faster", 1, 2}, {"2x slower", 2, 1}, {"unchanged", 1, 1}} {
		cur := synthRecord(fpB, scaleNs(synthNs, scale.num, scale.den), nil)
		if regs := CompareRatios(base, cur, 0.10); len(regs) > 0 {
			t.Fatalf("%s machine flagged by ratio gate:\n%s", scale.name, regNames(regs))
		}
	}
}

// TestCompareSyncRatiosOptRegression: a 10% slowdown of one optimized tier
// with the reference unchanged must fail, naming the tier; the same
// slowdown applied to every row (pure machine drift) must not.
func TestCompareSyncRatiosOptRegression(t *testing.T) {
	fp := Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthRecord(fp, synthNs, nil)
	bad := scaleNs(synthNs, 1, 1)
	bad["h=2/auto"] = bad["h=2/auto"] * 110 / 100
	cur := synthRecord(fp, bad, nil)
	regs := CompareRatios(base, cur, 0.05)
	if len(regs) == 0 {
		t.Fatal("10% optimized-path regression passed the ratio gate")
	}
	if !strings.Contains(regNames(regs), "sync/h=2/auto") {
		t.Fatalf("violation does not name the tier:\n%s", regNames(regs))
	}
	if strings.Contains(regNames(regs), "comp-static") {
		t.Fatalf("unregressed tier flagged:\n%s", regNames(regs))
	}
	drift := synthRecord(fp, scaleNs(synthNs, 110, 100), nil)
	if regs := CompareRatios(base, drift, 0.05); len(regs) > 0 {
		t.Fatalf("uniform 10%% drift flagged:\n%s", regNames(regs))
	}
}

// TestCompareSyncRatiosAllocsHardFail: allocation growth fails, reference
// row included, regardless of tolerance or noise.
func TestCompareSyncRatiosAllocsHardFail(t *testing.T) {
	fp := Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthRecord(fp, synthNs, nil)
	cur := synthRecord(fp, synthNs, map[string]int64{"h=8/unopt": 27})
	regs := CompareRatios(base, cur, 10.0)
	if len(regs) == 0 {
		t.Fatal("alloc regression passed the ratio gate")
	}
	if !strings.Contains(regNames(regs), "sync/h=8/unopt") || !strings.Contains(regNames(regs), "allocs/op") {
		t.Fatalf("alloc violation not pinned:\n%s", regNames(regs))
	}
}

// TestCompareSyncRatiosNoiseWidening: a wobble inside the recorded noise
// band passes; the band is capped so recorded garbage noise cannot
// neutralize the gate.
func TestCompareSyncRatiosNoiseWidening(t *testing.T) {
	fp := Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthRecord(fp, synthNs, nil)
	// +7% on one tier with ~4×1% noise contributions and tol 5% → inside
	// the widened band.
	wobble := scaleNs(synthNs, 1, 1)
	wobble["h=2/auto"] = wobble["h=2/auto"] * 107 / 100
	if regs := CompareRatios(base, synthRecord(fp, wobble, nil), 0.05); len(regs) > 0 {
		t.Fatalf("in-band wobble flagged:\n%s", regNames(regs))
	}
	// +45% with absurd recorded noise still fails: the cap holds the band
	// at tol + 25%.
	bad := scaleNs(synthNs, 1, 1)
	bad["h=2/auto"] = bad["h=2/auto"] * 145 / 100
	cur := synthRecord(fp, bad, nil)
	for i := range cur.Benchmarks {
		cur.Benchmarks[i].NoiseNs = cur.Benchmarks[i].NsPerOp // 100% "noise"
	}
	if regs := CompareRatios(base, cur, 0.05); len(regs) == 0 {
		t.Fatal("noise cap did not hold; gate neutralized itself")
	}
}

// TestSyncBaseline: the guard's baseline is the newest sync-bench record
// with the guard's graph and worker count; the guard's own records and
// other configurations never qualify.
func TestSyncBaseline(t *testing.T) {
	fp := Probe()
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	const graph = "rmat scale=12 ef=8 seed=7 cvc"
	rec := func(hour int, label string, workers int) Record {
		r := synthRecord(fp, synthNs, nil)
		r.Time, r.Label, r.Workers = t0.Add(time.Duration(hour)*time.Hour), label, workers
		return *r
	}
	recs := []Record{
		rec(0, LabelBench, 1),
		rec(1, LabelBench, 1), // newest matching sync-bench: the baseline
		rec(2, LabelBench, 0), // newer, but another worker count
		rec(3, LabelGuard, 1), // newer, but a guard measurement
	}
	got, err := SyncBaseline(recs, graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(t0.Add(time.Hour)) {
		t.Fatalf("baseline from %v, want the sync-bench record at %v", got.Time, t0.Add(time.Hour))
	}
	if got, err := SyncBaseline(recs, graph, 0); err != nil || !got.Time.Equal(t0.Add(2*time.Hour)) {
		t.Fatalf("SyncBaseline(workers=0) = %v, %v", got, err)
	}
	for _, miss := range []struct {
		graph   string
		workers int
	}{{graph, 4}, {"rmat scale=10 ef=8 seed=7 cvc", 1}} {
		_, err := SyncBaseline(recs, miss.graph, miss.workers)
		if err == nil || !strings.Contains(err.Error(), "make sync-bench") {
			t.Fatalf("SyncBaseline(%q, %d) err = %v, want one naming `make sync-bench`", miss.graph, miss.workers, err)
		}
	}
}
