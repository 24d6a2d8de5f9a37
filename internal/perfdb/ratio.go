package perfdb

// The opt/unopt ratio comparison behind the sync guard (`make
// trace-guard`, DESIGN.md §4.9). Each record measures the unoptimized
// reference wire format and the optimized tiers in one process, so
// comparing ratio against ratio cancels machine speed: a 2× faster host
// scales numerator and denominator together, while a slowdown of one
// optimized tier moves its ratio. Allocations are machine-independent and
// compared absolutely.

import (
	"fmt"
	"io"
)

// Labels of the sync-bench records: LabelBench marks a full measurement
// taken on purpose (`make sync-bench`), the only kind the guard takes as
// its baseline; LabelGuard marks the guard's own measurements.
const (
	LabelBench = "sync-bench"
	LabelGuard = "sync-guard"
)

// RefEncoding is the denominator of every ratio: the unoptimized
// reference wire format.
const RefEncoding = "unopt"

// SyncBaseline returns the newest LabelBench record measured on graph with
// workers sync workers — the baseline the ratio guard compares against.
func SyncBaseline(recs []Record, graph string, workers int) (*Record, error) {
	rec, err := Latest(recs, func(r *Record) bool {
		return r.Label == LabelBench && r.Graph == graph && r.Workers == workers
	})
	if err != nil {
		return nil, fmt.Errorf("perfdb: no %s record for %q with sync_workers=%d — record one with `make sync-bench`",
			LabelBench, graph, workers)
	}
	return rec, nil
}

type rowKey struct {
	hosts int
	enc   string
}

func rowIndex(rec *Record) map[rowKey]*BenchResult {
	idx := make(map[rowKey]*BenchResult, len(rec.Benchmarks))
	for i := range rec.Benchmarks {
		b := &rec.Benchmarks[i]
		idx[rowKey{b.Hosts, b.Encoding}] = b
	}
	return idx
}

// ratioOf returns b's ns/op over its host count's reference row in idx,
// and that reference; ok is false when either time is missing.
func ratioOf(idx map[rowKey]*BenchResult, b *BenchResult) (ratio float64, ref *BenchResult, ok bool) {
	ref = idx[rowKey{b.Hosts, RefEncoding}]
	if ref == nil || ref.NsPerOp <= 0 || b.NsPerOp <= 0 {
		return 0, nil, false
	}
	return float64(b.NsPerOp) / float64(ref.NsPerOp), ref, true
}

func relNoise(b *BenchResult) float64 {
	if b.NsPerOp <= 0 {
		return 0
	}
	return float64(b.NoiseNs) / float64(b.NsPerOp)
}

// CompareRatios gates cur against base per (hosts, tier): a row fails when
// cur_ratio > base_ratio × (1 + band), where the band is tol plus the
// summed relative noise of the four measurements behind the two ratios
// (capped like Check's). Allocs/op may never rise on any row, the
// reference row included. Rows without a baseline counterpart or a
// reference for their host count are skipped.
func CompareRatios(base, cur *Record, tol float64) []Regression {
	baseIdx, curIdx := rowIndex(base), rowIndex(cur)
	var out []Regression
	for i := range cur.Benchmarks {
		c := &cur.Benchmarks[i]
		b := baseIdx[rowKey{c.Hosts, c.Encoding}]
		if b == nil {
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			out = append(out, Regression{FingerprintID: cur.FingerprintID, Name: c.Name,
				AllocRegression: true, BaseAllocs: b.AllocsPerOp, LatestAllocs: c.AllocsPerOp})
		}
		if c.Encoding == RefEncoding {
			continue
		}
		curRatio, cRef, ok := ratioOf(curIdx, c)
		baseRatio, bRef, bok := ratioOf(baseIdx, b)
		if !ok || !bok {
			continue
		}
		bf := band(tol, relNoise(c)+relNoise(cRef)+relNoise(b)+relNoise(bRef), maxNoiseFrac)
		if curRatio > baseRatio*(1+bf) {
			out = append(out, Regression{FingerprintID: cur.FingerprintID, Name: c.Name,
				LatestNs: c.NsPerOp, BaseRatio: baseRatio, CurRatio: curRatio,
				DeltaFrac: curRatio/baseRatio - 1, BandFrac: bf})
		}
	}
	return out
}

// WriteRatioTable prints the comparison CompareRatios gates on, one line
// per row of cur.
func WriteRatioTable(w io.Writer, base, cur *Record) {
	baseIdx, curIdx := rowIndex(base), rowIndex(cur)
	fmt.Fprintf(w, "%-6s %-14s %11s %11s %8s %7s %10s %10s\n",
		"hosts", "tier", "base ratio", "cur ratio", "delta", "noise", "base a/op", "cur a/op")
	for i := range cur.Benchmarks {
		c := &cur.Benchmarks[i]
		var bAllocs int64
		b := baseIdx[rowKey{c.Hosts, c.Encoding}]
		if b != nil {
			bAllocs = b.AllocsPerOp
		}
		if c.Encoding == RefEncoding {
			fmt.Fprintf(w, "%-6d %-14s %11s %11s %8s %7s %10d %10d   (%d ns/op reference)\n",
				c.Hosts, c.Encoding, "1.000", "1.000", "ref", "", bAllocs, c.AllocsPerOp, c.NsPerOp)
			continue
		}
		ratioStr, baseStr, deltaStr, noiseStr := "n/a", "n/a", "n/a", ""
		if curRatio, cRef, ok := ratioOf(curIdx, c); ok {
			ratioStr = fmt.Sprintf("%.3f", curRatio)
			noiseStr = fmt.Sprintf("±%.1f%%", 100*(relNoise(c)+relNoise(cRef)))
			if b != nil {
				if baseRatio, _, ok := ratioOf(baseIdx, b); ok {
					baseStr = fmt.Sprintf("%.3f", baseRatio)
					deltaStr = fmt.Sprintf("%+.1f%%", 100*(curRatio/baseRatio-1))
				}
			}
		}
		fmt.Fprintf(w, "%-6d %-14s %11s %11s %8s %7s %10d %10d\n",
			c.Hosts, c.Encoding, baseStr, ratioStr, deltaStr, noiseStr, bAllocs, c.AllocsPerOp)
	}
}
