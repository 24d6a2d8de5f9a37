package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// Summary is the offline rollup of a trace: the paper-style tables —
// per-round communication volume, per-peer skew, phase time breakdown, and
// the encoding-mode histogram — that otherwise require hand-instrumenting a
// run. Build one with SummarizeMeta; print it with WriteTables.
type Summary struct {
	Label   string `json:"label,omitempty"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
	Hosts   int    `json:"hosts"`
	// Clocks is the per-host offset table of a merged multi-process trace
	// (empty for single-process traces).
	Clocks []ClockInfo `json:"clocks,omitempty"`
	// Sessions are the sideband shipper lifecycle records of a collector
	// merge; a session in state "error" disconnected without an orderly bye.
	Sessions []SessionInfo `json:"sessions,omitempty"`
	// PeerCap caps the per-peer skew table WriteTables prints (0 = all
	// rows). The full Peers list is always kept, e.g. for JSON output.
	PeerCap int `json:"-"`
	// WallNs spans the earliest event start to the latest event end.
	WallNs int64 `json:"wall_ns"`

	// Totals over all PhaseEncode events (i.e. every sync message sent).
	Messages   uint64 `json:"messages"`
	ValueBytes uint64 `json:"value_bytes"`
	MetaBytes  uint64 `json:"metadata_bytes"`
	GIDBytes   uint64 `json:"gid_bytes"`
	// Compressed/CompressSkipped split the messages the compression stage
	// considered (Comp tags on encode events); CompressionSaved is the wire
	// bytes the DEFLATE wrapper removed.
	Compressed       uint64 `json:"compressed_messages,omitempty"`
	CompressSkipped  uint64 `json:"compress_skipped,omitempty"`
	CompressionSaved uint64 `json:"compression_saved_bytes,omitempty"`

	Rounds []RoundStat      `json:"rounds"`
	Phases []PhaseStat      `json:"phases"`
	Peers  []PeerStat       `json:"peers"`
	Modes  [NumModes]uint64 `json:"modes"`
	Faults []Event          `json:"faults,omitempty"`
}

// RoundStat aggregates one BSP round. Byte columns come from encode spans;
// the time columns are maxima across hosts (each host's time is the sum of
// its spans of that phase in the round), matching the paper's
// max-across-hosts breakdown.
type RoundStat struct {
	Round     int32  `json:"round"`
	Messages  uint64 `json:"messages"`
	Value     uint64 `json:"value"`
	Meta      uint64 `json:"meta"`
	GID       uint64 `json:"gid"`
	SyncNs    int64  `json:"sync_ns"`
	ComputeNs int64  `json:"compute_ns"`
	BarrierNs int64  `json:"barrier_ns"`
}

// PhaseStat is one phase's global count and time.
type PhaseStat struct {
	Phase   Phase  `json:"phase"`
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

// PeerStat is one directed (sender, receiver) pair's volume, the per-peer
// skew table.
type PeerStat struct {
	Host     int32  `json:"host"`
	Peer     int32  `json:"peer"`
	Messages uint64 `json:"messages"`
	Bytes    uint64 `json:"bytes"`
}

// SummarizeMeta rolls events up into a Summary, carrying the export metadata
// (label, dropped count, clock table) through for display.
func SummarizeMeta(meta Meta, events []Event) *Summary {
	return buildAll(meta, events).summary(meta)
}

// tally is the analyzer's share of a CriticalBuilder: the volume, peer,
// phase, mode and fault counts, taken on every event before the builder
// filters it, so a late event still counts toward the totals. The round
// rows' time columns are filled as the builder finalizes each round.
type tally struct {
	s                Summary // the totals, modes and faults
	rounds           map[int32]*RoundStat
	peers            map[[2]int32]*PeerStat
	phases           [NumPhases]PhaseStat
	hosts            map[int32]bool
	minStart, maxEnd int64
}

func (t *tally) round(r int32) *RoundStat {
	if t.rounds[r] == nil {
		t.rounds[r] = &RoundStat{Round: r}
	}
	return t.rounds[r]
}

func (t *tally) add(e *Event, start int64) {
	if t.s.Events == 0 {
		t.minStart, t.maxEnd = start, start
	}
	t.s.Events++
	t.hosts[e.Host] = true
	t.minStart = min(t.minStart, start)
	t.maxEnd = max(t.maxEnd, start+e.Dur)
	if e.Phase < NumPhases {
		t.phases[e.Phase].Phase = e.Phase
		t.phases[e.Phase].Count++
		t.phases[e.Phase].TotalNs += e.Dur
	}
	r := t.round(e.Round)
	switch e.Phase {
	case PhaseEncode:
		r.Messages++
		r.Value += e.Value
		r.Meta += e.Meta
		r.GID += e.GID
		t.s.Messages++
		t.s.ValueBytes += e.Value
		t.s.MetaBytes += e.Meta
		t.s.GIDBytes += e.GID
		if e.Mode >= 0 && e.Mode < NumModes {
			t.s.Modes[e.Mode]++
		}
		switch e.Comp {
		case CompShipped:
			t.s.Compressed++
			t.s.CompressionSaved += e.Saved
		case CompSkipped:
			t.s.CompressSkipped++
		}
		k := [2]int32{e.Host, e.Peer}
		if t.peers[k] == nil {
			t.peers[k] = &PeerStat{Host: e.Host, Peer: e.Peer}
		}
		t.peers[k].Messages++
		t.peers[k].Bytes += e.Bytes()
	case PhaseFault:
		f := *e
		f.Start = start
		t.s.Faults = append(t.s.Faults, f)
	}
}

// summary reads the analyzer tables off the builder: the tallies above
// plus, per round, the max across hosts of each host's compute, sync and
// barrier segments. Rounds still open have no time columns yet.
func (b *CriticalBuilder) summary(meta Meta) *Summary {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := &b.tally
	s := t.s
	s.Label, s.Dropped, s.Clocks, s.Sessions = meta.Label, meta.Dropped, meta.Clocks, meta.Sessions
	s.Hosts = len(t.hosts)
	s.WallNs = t.maxEnd - t.minStart
	s.Faults = slices.Clone(t.s.Faults)
	for _, r := range t.rounds {
		s.Rounds = append(s.Rounds, *r)
	}
	sort.Slice(s.Rounds, func(i, j int) bool { return s.Rounds[i].Round < s.Rounds[j].Round })
	for p := Phase(0); p < NumPhases; p++ {
		if t.phases[p].Count > 0 {
			s.Phases = append(s.Phases, t.phases[p])
		}
	}
	for _, p := range t.peers {
		s.Peers = append(s.Peers, *p)
	}
	// The peer table is a skew table: the point is the heaviest channels, so
	// sort by volume descending (rank order buries the outliers on wide
	// clusters); ties fall back to (host, peer) for determinism.
	sort.Slice(s.Peers, func(i, j int) bool {
		if s.Peers[i].Bytes != s.Peers[j].Bytes {
			return s.Peers[i].Bytes > s.Peers[j].Bytes
		}
		if s.Peers[i].Host != s.Peers[j].Host {
			return s.Peers[i].Host < s.Peers[j].Host
		}
		return s.Peers[i].Peer < s.Peers[j].Peer
	})
	sort.Slice(s.Faults, func(i, j int) bool { return s.Faults[i].Start < s.Faults[j].Start })
	return &s
}

// TotalBytes is the summed payload volume over all messages.
func (s *Summary) TotalBytes() uint64 { return s.ValueBytes + s.MetaBytes + s.GIDBytes }

// WriteTables prints the summary as the paper-style tables.
func (s *Summary) WriteTables(w io.Writer) error {
	label := s.Label
	if label != "" {
		label = " (" + label + ")"
	}
	if _, err := fmt.Fprintf(w, "trace%s: %d events, %d hosts, %d rounds, %d dropped, wall %v\n",
		label, s.Events, s.Hosts, len(s.Rounds), s.Dropped, round3(time.Duration(s.WallNs))); err != nil {
		return err
	}
	fmt.Fprintf(w, "totals: %d messages, %s (value %s / metadata %s / gids %s)\n",
		s.Messages, FormatBytes(s.TotalBytes()), FormatBytes(s.ValueBytes), FormatBytes(s.MetaBytes), FormatBytes(s.GIDBytes))
	if s.Compressed > 0 || s.CompressSkipped > 0 {
		fmt.Fprintf(w, "compression: %d shipped compressed / %d raw, %s saved on the wire\n",
			s.Compressed, s.CompressSkipped, FormatBytes(s.CompressionSaved))
	}
	if len(s.Clocks) > 0 {
		fmt.Fprint(w, "clock offsets (applied at merge):")
		for _, ci := range s.Clocks {
			fmt.Fprintf(w, " host %d %+v ±%v;", ci.Host,
				round3(time.Duration(ci.OffsetNs)), round3(time.Duration(ci.UncertaintyNs)))
		}
		fmt.Fprintln(w)
	}
	if len(s.Sessions) > 0 {
		fmt.Fprint(w, "sideband sessions:")
		for _, si := range s.Sessions {
			name := si.Addr
			if len(si.Hosts) > 0 {
				name = fmt.Sprintf("hosts %v", si.Hosts)
			}
			switch si.State {
			case "error":
				fmt.Fprintf(w, " #%d %s DISCONNECTED (%s);", si.ID, name, si.Error)
			default:
				fmt.Fprintf(w, " #%d %s %s;", si.ID, name, si.State)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	if len(s.Rounds) > 0 {
		fmt.Fprintln(w, "per-round volume & time (time columns are max across hosts):")
		fmt.Fprintf(w, "%6s %8s %10s %10s %10s %12s %12s %12s\n",
			"round", "msgs", "value", "meta", "gids", "sync", "compute", "barrier")
		for _, r := range s.Rounds {
			name := fmt.Sprintf("%d", r.Round)
			if r.Round < 0 {
				name = "init"
			}
			fmt.Fprintf(w, "%6s %8d %10s %10s %10s %12v %12v %12v\n",
				name, r.Messages, FormatBytes(r.Value), FormatBytes(r.Meta), FormatBytes(r.GID),
				round3(time.Duration(r.SyncNs)), round3(time.Duration(r.ComputeNs)), round3(time.Duration(r.BarrierNs)))
		}
		fmt.Fprintln(w)
	}

	if len(s.Peers) > 0 {
		rows := s.Peers
		if s.PeerCap > 0 && len(rows) > s.PeerCap {
			rows = rows[:s.PeerCap]
		}
		fmt.Fprintln(w, "per-peer volume (sender -> receiver, heaviest first):")
		fmt.Fprintf(w, "%6s %6s %8s %10s\n", "host", "peer", "msgs", "bytes")
		for _, p := range rows {
			fmt.Fprintf(w, "%6d %6d %8d %10s\n", p.Host, p.Peer, p.Messages, FormatBytes(p.Bytes))
		}
		if n := len(s.Peers) - len(rows); n > 0 {
			fmt.Fprintf(w, "  … %d lighter pairs elided (-top to adjust)\n", n)
		}
		fmt.Fprintln(w)
	}

	if len(s.Phases) > 0 {
		fmt.Fprintln(w, "phase time breakdown (all hosts):")
		fmt.Fprintf(w, "%-10s %10s %12s %12s\n", "phase", "count", "total", "mean")
		for _, p := range s.Phases {
			mean := time.Duration(0)
			if p.Count > 0 {
				mean = time.Duration(p.TotalNs / int64(p.Count))
			}
			fmt.Fprintf(w, "%-10s %10d %12v %12v\n", p.Phase, p.Count, round3(time.Duration(p.TotalNs)), round3(mean))
		}
		fmt.Fprintln(w)
	}

	if s.Messages > 0 {
		fmt.Fprintln(w, "encoding modes:")
		fmt.Fprintf(w, "%-10s %8s\n", "mode", "msgs")
		for m := 0; m < NumModes; m++ {
			if s.Modes[m] > 0 {
				fmt.Fprintf(w, "%-10s %8d\n", ModeName(int8(m)), s.Modes[m])
			}
		}
		fmt.Fprintln(w)
	}

	if len(s.Faults) > 0 {
		fmt.Fprintln(w, "fault timeline:")
		for _, f := range s.Faults {
			fmt.Fprintf(w, "  t=%-12v host %-3d peer %-3d %s\n",
				round3(time.Duration(f.Start)), f.Host, f.Peer, f.Detail)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// round3 trims a duration to ~3 significant sub-unit digits for tables.
func round3(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d
	}
}

// FormatBytes renders byte counts with binary-prefix units.
func FormatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
