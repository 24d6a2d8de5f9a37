package main

import (
	"fmt"

	"gluon/internal/perfdb"
)

// perf is the trend analyzer over the machine-fingerprinted benchmark
// history (BENCH_history.jsonl) that gluon-bench appends to: it prints
// per-benchmark trend tables and sparklines grouped by host fingerprint
// and, with -check, flags regressions (latest point vs trailing median,
// beyond the noise band) and exits 1. The same history holds the sync
// guard's baseline (the newest sync-bench record).
//
// The regression check never compares across fingerprints: a new machine
// establishes a fresh series (its first record passes vacuously), while a
// slowdown on the machine the history already knows is flagged by
// benchmark name with its trend line. See DESIGN.md §4.9.
func perf(c *cli, args []string) int {
	fs := c.flags("gluon-trace perf", "usage: gluon-trace perf [-db history.jsonl] [-check] [-tol f] [-window n] [-fp id]\n\n"+
		"Prints the trend tables of a perfdb benchmark history; -check exits 1 when the\nnewest record regresses against its fingerprint's trailing median.")
	db := fs.String("db", "BENCH_history.jsonl", "perfdb history file (JSONL, appended by gluon-bench)")
	check := fs.Bool("check", false, "flag regressions in the newest record vs its fingerprint's trailing history; exit 1 if any")
	tol := fs.Float64("tol", 0.05, "fractional ns/op regression allowed before noise widening (-check)")
	window := fs.Int("window", 8, "trailing points forming the reference median and sparklines")
	fp := fs.String("fp", "", "restrict trend tables to this fingerprint ID (prefix match)")
	if code, ok := parse(fs, args, -1); !ok {
		return code
	}
	recs, skipped, err := perfdb.Read(*db)
	if err != nil {
		return c.fail(err)
	}
	if skipped > 0 {
		c.log.Warn("skipped unreadable history lines (torn append or foreign schema)", "path", *db, "lines", skipped)
	}
	if len(recs) == 0 {
		return c.fail(fmt.Errorf("%s holds no readable records — run `make sync-bench` or `gluon-bench -sync-record -perfdb %s`", *db, *db))
	}
	if *fp != "" {
		var kept []perfdb.Record
		for _, r := range recs {
			if len(*fp) <= len(r.FingerprintID) && r.FingerprintID[:len(*fp)] == *fp {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			return c.fail(fmt.Errorf("no records match fingerprint %q (host is %s)", *fp, perfdb.Probe().ID()))
		}
		recs = kept
	}
	if err := perfdb.WriteTrends(c.out, recs, *window); err != nil {
		return c.fail(err)
	}
	if !*check {
		return 0
	}
	regs := perfdb.Check(recs, perfdb.CheckOptions{Tol: *tol, Window: *window})
	if len(regs) == 0 {
		fmt.Fprintf(c.out, "\nno regressions: newest record within band of its fingerprint's trailing median ✓\n")
		return 0
	}
	fmt.Fprintln(c.out)
	for _, r := range regs {
		fmt.Fprintln(c.out, r.String())
	}
	return 1
}
