package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gluon/internal/perfdb"
	"gluon/internal/trace"
)

// invoke runs the CLI in-process and returns its exit code and stdout.
func invoke(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	t.Logf("gluon-trace %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, errOut.String())
	return code, out.String()
}

// cliEvents is a two-host, two-round trace with an init row.
func cliEvents() []trace.Event {
	return []trace.Event{
		{Start: 100, Dur: 50, Phase: trace.PhaseSync, Host: 0, Round: -1, Peer: -1},
		{Start: 200, Dur: 40, Phase: trace.PhaseCompute, Host: 0, Round: 0, Peer: -1},
		{Start: 210, Dur: 70, Phase: trace.PhaseCompute, Host: 1, Round: 0, Peer: -1},
		{Start: 250, Dur: 5, Phase: trace.PhaseEncode, Host: 0, Round: 0, Peer: 1, Mode: 1, Value: 800, Meta: 8},
		{Start: 290, Dur: 5, Phase: trace.PhaseEncode, Host: 1, Round: 0, Peer: 0, Mode: 2, Value: 96, Meta: 16},
		{Start: 260, Dur: 60, Phase: trace.PhaseBarrier, Host: 0, Round: 0, Peer: -1},
		{Start: 300, Dur: 20, Phase: trace.PhaseBarrier, Host: 1, Round: 0, Peer: -1},
		{Start: 330, Dur: 30, Phase: trace.PhaseCompute, Host: 0, Round: 1, Peer: -1},
		{Start: 330, Dur: 10, Phase: trace.PhaseCompute, Host: 1, Round: 1, Peer: -1},
		{Start: 365, Dur: 5, Phase: trace.PhaseBarrier, Host: 0, Round: 1, Peer: -1},
		{Start: 345, Dur: 25, Phase: trace.PhaseBarrier, Host: 1, Round: 1, Peer: -1},
	}
}

// TestAnalyzeTrace: the default tables and -critical -json print exactly
// what the library renders for the same events.
func TestAnalyzeTrace(t *testing.T) {
	meta := trace.Meta{Label: "cli"}
	events := cliEvents()
	for _, name := range []string{"t.json", "t.jsonl"} {
		path := filepath.Join(t.TempDir(), name)
		if err := trace.WriteFileMeta(path, meta, events); err != nil {
			t.Fatal(err)
		}

		code, out := invoke(t, path)
		var want bytes.Buffer
		trace.SummarizeMeta(meta, events).WriteTables(&want)
		if code != 0 || out != want.String() {
			t.Errorf("%s: exit %d, tables:\n%s\nwant:\n%s", name, code, out, want.String())
		}
		if !strings.Contains(out, "init") || !strings.Contains(out, "per-peer volume") {
			t.Errorf("%s: tables miss the init row or the peer table:\n%s", name, out)
		}

		code, out = invoke(t, "-critical", "-json", path)
		wantJSON, _ := json.MarshalIndent(trace.ComputeCriticalPath(meta, events), "", "  ")
		if code != 0 || out != string(wantJSON)+"\n" {
			t.Errorf("%s: exit %d, -critical -json:\n%s\nwant:\n%s", name, code, out, wantJSON)
		}
		var cp trace.CriticalPath
		if err := json.Unmarshal([]byte(out), &cp); err != nil || len(cp.Rounds) != 2 || cp.Rounds[0].Gate != 1 {
			t.Errorf("%s: critical path = %+v (err %v), want 2 rounds with round 0 gated by host 1", name, cp, err)
		}
	}
}

func TestAnalyzeEmptyTraceFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := trace.WriteFileMeta(path, trace.Meta{Label: "empty"}, nil); err != nil {
		t.Fatal(err)
	}
	if code, _ := invoke(t, path); code != 1 {
		t.Errorf("empty trace: exit %d, want 1", code)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if code, out := invoke(t, "bogus"); code != 2 || out != "" {
		t.Errorf("unknown subcommand: exit %d, stdout %q; want 2 and nothing", code, out)
	}
}

// TestPerfCheck: perf -check passes a flat two-record history and exits 1
// when the newest record is 50% slower.
func TestPerfCheck(t *testing.T) {
	fp := perfdb.Fingerprint{CPUModel: "test cpu", Cores: 4, GOMAXPROCS: 4, GoVersion: "go1.22", OS: "linux", Arch: "amd64"}
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	history := func(newestNs int64) string {
		path := filepath.Join(t.TempDir(), "history.jsonl")
		for i, ns := range []int64{20000, newestNs} {
			rec := &perfdb.Record{Time: t0.Add(time.Duration(i) * time.Hour), Label: perfdb.LabelBench, Fingerprint: fp,
				Benchmarks: []perfdb.BenchResult{{Name: "sync/h=2/auto", NsPerOp: ns, AllocsPerOp: 26, NoiseNs: 200, Reps: 8}}}
			if err := perfdb.Append(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}

	code, out := invoke(t, "perf", "-check", "-db", history(20100))
	if code != 0 || !strings.Contains(out, "no regressions") {
		t.Errorf("flat history: exit %d, output:\n%s", code, out)
	}
	code, out = invoke(t, "perf", "-check", "-db", history(30000))
	if code != 1 || !strings.Contains(out, "REGRESSION sync/h=2/auto") {
		t.Errorf("+50%% ns/op: exit %d, output:\n%s", code, out)
	}
}

func TestDoctor(t *testing.T) {
	dir := t.TempDir()
	tr := trace.New(trace.Config{Capacity: 64, Label: "doctor-test"})
	r := tr.Recorder(1)
	r.SetRound(3)
	r.Emit(trace.Event{Phase: trace.PhaseEncode, Start: r.Now(), Peer: 0})
	fr := trace.NewFlightRecorder(trace.FlightConfig{Dir: dir, Trace: tr, Host: 1})
	if _, err := fr.Dump(trace.DumpInfo{Trigger: trace.TriggerManual, Host: 1, Peer: -1, Round: 3,
		Phase: trace.PhaseEncode, Cause: errors.New("operator asked")}); err != nil {
		t.Fatal(err)
	}

	code, out := invoke(t, "doctor", dir)
	if code != 0 || !strings.Contains(out, "1 bundle(s)") || !strings.Contains(out, "operator asked") {
		t.Errorf("doctor: exit %d, transcript:\n%s", code, out)
	}
}

// TestTopOnce: top -once -o jsonl prints the collector's snapshot as one
// JSON line and exits.
func TestTopOnce(t *testing.T) {
	col, err := trace.ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	tr := trace.New(trace.Config{Label: "top-test"})
	r := tr.Recorder(0)
	r.Emit(trace.Event{Phase: trace.PhaseCompute, Start: r.Now(), Dur: 10, Peer: -1})
	col.SetLocal(tr)

	code, out := invoke(t, "top", "-once", "-o", "jsonl", col.Addr())
	var u trace.ViewUpdate
	if code != 0 || strings.Count(out, "\n") != 1 {
		t.Fatalf("top: exit %d, output %q; want one JSON line", code, out)
	}
	if err := json.Unmarshal([]byte(out), &u); err != nil || u.Label != "top-test" {
		t.Errorf("top update = %+v (err %v), want the collector's snapshot", u, err)
	}
}
