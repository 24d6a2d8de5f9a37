package trace

// Critical-path attribution. A BSP round ends when the last host arrives at
// the termination all-reduce — so the round's wall time is set by exactly
// one host, and within that host by whichever phase dominated its path to
// the barrier. The per-round and per-phase tables (analyze.go) show *sums*;
// they cannot answer the operator's actual question: "which host gated this
// round, and was it computing, encoding, on the wire, or waiting?" This
// file answers it from the spans the substrate already emits.
//
// Model (DESIGN.md §4.8):
//
//   - All events are first rebased onto one clock axis (the collector's,
//     via the sideband offsets; a single-process trace is already on one
//     axis). Comparing two hosts' aligned timestamps is then correct to
//     within the sum of their offset uncertainties; every verdict carries
//     that bound.
//   - Per (host, round) the driver emits three *sequential* spans — compute,
//     sync, barrier — so they tile the host's round wall time. The gating
//     host is the one whose barrier span *starts* last (the last arrival);
//     its margin is how much later it arrived than the runner-up.
//   - The gating phase refines the verdict with the sync sub-phase sums
//     (encode / wire / recvwait / fold / apply, plus compute and the
//     barrier's straggler-wait): the largest bucket on the gating host's
//     path. Encode/wire run on parallel worker lanes, so those buckets are
//     worker time, not wall time — good enough for dominance, and stated as
//     such.
//
// The optimization-effectiveness ledger models what the paper's Figure 10
// measures between configurations, from one run's trace alone: for every
// directed (sender, peer, field) channel, the dense capacity is estimated
// as the largest single pre-compression message ever observed on it; a
// naive substrate would broadcast that much on every channel every round.
// The gap to the bytes actually shipped splits into compression savings
// (the Saved tags), update-mask sparsity (messages smaller than the channel
// capacity), and invariant/empty-round skips (rounds where a known channel
// shipped nothing). Channels eliminated *entirely* by structural invariants
// never appear in a trace, so the model undercounts those — the caveat is
// printed with the table.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// CritPhase is the attribution taxonomy: where a gating host's round went.
type CritPhase uint8

const (
	CritCompute CritPhase = iota
	CritEncode
	CritWire
	CritRecvWait
	CritFold
	CritApply
	// CritWait is the straggler wait: time parked in the termination
	// barrier behind slower hosts.
	CritWait
	NumCritPhases
)

var critNames = [NumCritPhases]string{
	"compute", "encode", "wire", "recvwait", "fold", "apply", "straggler-wait",
}

// String returns the taxonomy name used in tables and JSON.
func (c CritPhase) String() string {
	if c < NumCritPhases {
		return critNames[c]
	}
	return "unknown"
}

// MarshalJSON writes the name, matching Phase's convention.
func (c CritPhase) MarshalJSON() ([]byte, error) {
	return []byte(`"` + c.String() + `"`), nil
}

// UnmarshalJSON accepts a name or raw number.
func (c *CritPhase) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
		for i, n := range critNames {
			if n == s {
				*c = CritPhase(i)
				return nil
			}
		}
		*c = NumCritPhases
		return nil
	}
	var n uint8
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		return err
	}
	*c = CritPhase(n)
	return nil
}

// critOf maps a span phase into the attribution taxonomy.
func critOf(p Phase) (CritPhase, bool) {
	switch p {
	case PhaseCompute:
		return CritCompute, true
	case PhaseEncode:
		return CritEncode, true
	case PhaseSend:
		return CritWire, true
	case PhaseRecvWait:
		return CritRecvWait, true
	case PhaseFold:
		return CritFold, true
	case PhaseApply:
		return CritApply, true
	case PhaseBarrier:
		return CritWait, true
	}
	return NumCritPhases, false
}

// HostRound is one host's accounting of one BSP round, on the aligned axis.
type HostRound struct {
	Host int32 `json:"host"`
	// StartNs/EndNs bound the host's recorded activity in the round.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// ArriveNs is when the host reached the termination barrier (the start
	// of its barrier span); EndNs when no barrier span was recorded.
	ArriveNs int64 `json:"arrive_ns"`
	// ComputeNs/SyncNs/BarrierNs are the sequential driver segments; they
	// tile the host's round wall time.
	ComputeNs int64 `json:"compute_ns"`
	SyncNs    int64 `json:"sync_ns"`
	BarrierNs int64 `json:"barrier_ns"`
	// SubNs are the taxonomy sums, indexed by CritPhase. Encode/wire are
	// summed worker-lane time and may exceed the wall segments.
	SubNs [NumCritPhases]int64 `json:"sub_ns"`
	// Bytes is the round's encode payload volume sent by this host.
	Bytes uint64 `json:"bytes"`

	arrived bool
}

// RoundPath is one round's critical-path verdict.
type RoundPath struct {
	Round int32 `json:"round"`
	// WallNs spans the earliest host activity to the latest, aligned.
	WallNs int64 `json:"wall_ns"`
	// UncertaintyNs bounds cross-host timestamp comparison for this round:
	// the two largest per-host clock uncertainties, summed.
	UncertaintyNs int64 `json:"uncertainty_ns,omitempty"`
	// Gate is the host whose barrier arrival came last; GatePhase the
	// largest bucket on its path; MarginNs its lead over the runner-up
	// (a margin below UncertaintyNs means the verdict is a coin toss).
	Gate      int32       `json:"gate"`
	GatePhase CritPhase   `json:"gate_phase"`
	MarginNs  int64       `json:"margin_ns"`
	Hosts     []HostRound `json:"hosts"`
}

// HostPath returns h's accounting, nil when the host is absent.
func (r *RoundPath) HostPath(h int32) *HostRound {
	for i := range r.Hosts {
		if r.Hosts[i].Host == h {
			return &r.Hosts[i]
		}
	}
	return nil
}

// Residual is the round wall time not explained by the gating host's
// sequential segments. |Residual| should stay within UncertaintyNs plus
// scheduling noise; a large residual means the trace is missing spans
// (ring overwrites) or the clocks disagree beyond their declared bounds.
func (r *RoundPath) Residual() int64 {
	g := r.HostPath(r.Gate)
	if g == nil {
		return r.WallNs
	}
	return r.WallNs - (g.ComputeNs + g.SyncNs + g.BarrierNs)
}

// GateCount is one host's share of the gating verdicts.
type GateCount struct {
	Host   int32          `json:"host"`
	Count  int            `json:"count"`
	Phases map[string]int `json:"phases,omitempty"`
}

// Verdict is the rolling cluster-level summary: who gates, doing what.
type Verdict struct {
	Rounds int         `json:"rounds"`
	Gates  []GateCount `json:"gates,omitempty"` // descending by Count
}

// String renders the one-line verdict gluon-trace top shows.
func (v Verdict) String() string {
	if v.Rounds == 0 || len(v.Gates) == 0 {
		return "no rounds attributed yet"
	}
	g := v.Gates[0]
	top, topN := "", 0
	for ph, n := range g.Phases {
		if n > topN || (n == topN && ph < top) {
			top, topN = ph, n
		}
	}
	return fmt.Sprintf("host %d gated %d/%d rounds, mostly %s", g.Host, g.Count, v.Rounds, top)
}

// HostPhaseSum is one host's cumulative taxonomy time over attributed
// rounds — the phase-breakdown bar gluon-trace top renders per host.
type HostPhaseSum struct {
	Host   int32                `json:"host"`
	Rounds int                  `json:"rounds"`
	SubNs  [NumCritPhases]int64 `json:"sub_ns"`
	Bytes  uint64               `json:"bytes"`
}

// TotalNs sums the host's buckets.
func (h *HostPhaseSum) TotalNs() int64 {
	var t int64
	for _, d := range h.SubNs {
		t += d
	}
	return t
}

// Ledger is the optimization-effectiveness model: bytes actually shipped
// against a modeled naive dense broadcast, split by mechanism.
type Ledger struct {
	// Rounds is the number of attributed rounds the baseline covers;
	// Channels the number of distinct (sender, peer, field) channels seen.
	Rounds   int    `json:"rounds"`
	Channels int    `json:"channels"`
	Messages uint64 `json:"messages"`
	// ShippedBytes went on the wire (post-compression); RawBytes is the
	// pre-compression payload (Shipped + CompressionSaved).
	ShippedBytes uint64 `json:"shipped_bytes"`
	RawBytes     uint64 `json:"raw_bytes"`
	// BaselineBytes is the modeled naive volume: every channel shipping its
	// dense capacity every round. The split below accounts the difference.
	BaselineBytes         uint64 `json:"baseline_bytes"`
	CompressionSavedBytes uint64 `json:"compression_saved_bytes"`
	// SparsitySavedBytes: messages smaller than their channel's capacity
	// (update-mask sparsity and the bitvec/indices/gid encodings).
	SparsitySavedBytes uint64 `json:"sparsity_saved_bytes"`
	// InvariantSavedBytes: rounds where a known channel shipped nothing
	// (temporal invariance, empty updates). SilentChannelRounds counts them.
	InvariantSavedBytes uint64 `json:"invariant_saved_bytes"`
	SilentChannelRounds uint64 `json:"silent_channel_rounds"`
	// WireNsPerByte is the observed send cost (Σ send-span ns / Σ shipped
	// bytes), the rate behind the modeled sync-time savings; 0 = unknown.
	WireNsPerByte float64 `json:"wire_ns_per_byte,omitempty"`
}

// SavedNs models the sync time a byte saving is worth at the observed wire
// rate (0 when the trace recorded no send spans).
func (l *Ledger) SavedNs(bytes uint64) int64 {
	return int64(l.WireNsPerByte * float64(bytes))
}

// chanStat accumulates one directed (sender, peer, field) channel.
type chanStat struct {
	msgs      uint64
	shipped   uint64
	raw       uint64
	saved     uint64
	capacity  uint64 // largest single pre-compression message
	present   int    // distinct rounds with >= 1 message
	lastRound int32
}

type chanKey struct {
	host, peer int32
	field      uint32
}

// CriticalPath is the full offline attribution of a trace.
type CriticalPath struct {
	Label string `json:"label,omitempty"`
	// UncertaintyNs is the worst cross-host comparison bound (see RoundPath).
	UncertaintyNs int64          `json:"uncertainty_ns,omitempty"`
	Rounds        []RoundPath    `json:"rounds"`
	Hosts         []HostPhaseSum `json:"hosts,omitempty"`
	Verdict       Verdict        `json:"verdict"`
	Ledger        Ledger         `json:"ledger"`
}

// CriticalBuilder folds aligned events into per-round attributions
// incrementally: the collector feeds it batch by batch and reads the
// trailing verdicts for live viewers; offline callers feed everything and
// FinalizeAll. It is the one per-round aggregator: SummarizeMeta reads the
// analyzer tables off it too. Safe for concurrent use.
type CriticalBuilder struct {
	mu       sync.Mutex
	open     map[int32]map[int32]*HostRound // round -> host -> accounting
	maxSeen  map[int32]int32                // host -> newest round observed
	unc      map[int32]int64                // host -> clock uncertainty, ns
	channels map[chanKey]*chanStat
	totals   map[int32]*HostPhaseSum
	done     []RoundPath
	gates    map[int32]*GateCount
	sendNs   int64
	tally    tally
	// floor is the lowest round not yet finalized: events for earlier rounds
	// arriving late (a host's ring drained on a different cadence) must not
	// re-open a closed round and double-attribute it.
	floor int32
}

// NewCriticalBuilder returns an empty builder.
func NewCriticalBuilder() *CriticalBuilder {
	return &CriticalBuilder{
		open:     make(map[int32]map[int32]*HostRound),
		maxSeen:  make(map[int32]int32),
		unc:      make(map[int32]int64),
		channels: make(map[chanKey]*chanStat),
		totals:   make(map[int32]*HostPhaseSum),
		gates:    make(map[int32]*GateCount),
		floor:    math.MinInt32,
		tally: tally{
			rounds: make(map[int32]*RoundStat),
			peers:  make(map[[2]int32]*PeerStat),
			hosts:  make(map[int32]bool),
		},
	}
}

// SetHostClock declares a host's clock-offset uncertainty (the ±bound the
// sideband measured). Hosts never declared count as exact (local hosts).
func (b *CriticalBuilder) SetHostClock(host int32, uncertaintyNs int64) {
	b.mu.Lock()
	b.unc[host] = uncertaintyNs
	b.mu.Unlock()
}

// Ingest folds a batch of one or more hosts' events, rebasing each start
// time by offsetNs onto the reference axis. Events of a given host must
// arrive in emission order (which rings, batches, and Snapshot all
// preserve); rounds already finalized are ignored, except by the tallies.
func (b *CriticalBuilder) Ingest(events []Event, offsetNs int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range events {
		e := &events[i]
		start := e.Start + offsetNs
		b.tally.add(e, start)
		cp, ok := critOf(e.Phase)
		if !ok && e.Phase != PhaseSync {
			continue // instants and ckpt spans don't attribute round time
		}
		if ms, seen := b.maxSeen[e.Host]; !seen || e.Round > ms {
			b.maxSeen[e.Host] = e.Round
		}
		if e.Phase == PhaseSend {
			b.sendNs += e.Dur
		}
		if e.Phase == PhaseEncode && e.Round >= 0 {
			b.channel(e).add(e)
		}
		if e.Round < b.floor {
			continue // round already finalized; too late to attribute
		}
		hosts := b.open[e.Round]
		if hosts == nil {
			hosts = make(map[int32]*HostRound)
			b.open[e.Round] = hosts
		}
		hr := hosts[e.Host]
		if hr == nil {
			hr = &HostRound{Host: e.Host, StartNs: start, EndNs: start}
			hosts[e.Host] = hr
		}
		if start < hr.StartNs {
			hr.StartNs = start
		}
		if end := start + e.Dur; end > hr.EndNs {
			hr.EndNs = end
		}
		if ok {
			// PhaseSync has no taxonomy bucket of its own — its interior
			// (encode/wire/recvwait/fold/apply) is what attributes.
			hr.SubNs[cp] += e.Dur
		}
		switch e.Phase {
		case PhaseCompute:
			hr.ComputeNs += e.Dur
		case PhaseSync:
			hr.SyncNs += e.Dur
		case PhaseBarrier:
			hr.BarrierNs += e.Dur
			if !hr.arrived || start < hr.ArriveNs {
				hr.ArriveNs = start
			}
			hr.arrived = true
		case PhaseEncode:
			hr.Bytes += e.Bytes()
		}
	}
	b.finalizeReady()
}

func (b *CriticalBuilder) channel(e *Event) *chanStat {
	k := chanKey{host: e.Host, peer: e.Peer, field: e.Field}
	cs := b.channels[k]
	if cs == nil {
		cs = &chanStat{lastRound: -1}
		b.channels[k] = cs
	}
	return cs
}

func (cs *chanStat) add(e *Event) {
	shipped := e.Bytes()
	raw := shipped + e.Saved
	cs.msgs++
	cs.shipped += shipped
	cs.raw += raw
	cs.saved += e.Saved
	if raw > cs.capacity {
		cs.capacity = raw
	}
	if e.Round != cs.lastRound {
		cs.present++
		cs.lastRound = e.Round
	}
}

// finalizeReady closes every open round all known hosts have moved past.
// Caller holds b.mu.
func (b *CriticalBuilder) finalizeReady() {
	if len(b.maxSeen) == 0 {
		return
	}
	frontier := int32(1<<31 - 1)
	for _, r := range b.maxSeen {
		if r < frontier {
			frontier = r
		}
	}
	b.finalizeBelow(frontier)
}

// FinalizeAll closes every open round — end of trace, nothing more coming.
func (b *CriticalBuilder) FinalizeAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.finalizeBelow(int32(1<<31 - 1))
}

func (b *CriticalBuilder) finalizeBelow(frontier int32) {
	var ready []int32
	for r := range b.open {
		if r < frontier {
			ready = append(ready, r)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, r := range ready {
		b.finalizeRound(r, b.open[r])
		delete(b.open, r)
		if r+1 > b.floor {
			b.floor = r + 1
		}
	}
}

func (b *CriticalBuilder) finalizeRound(round int32, hosts map[int32]*HostRound) {
	if len(hosts) == 0 {
		return
	}
	row := b.tally.round(round)
	for _, hr := range hosts {
		row.SyncNs = max(row.SyncNs, hr.SyncNs)
		row.ComputeNs = max(row.ComputeNs, hr.ComputeNs)
		row.BarrierNs = max(row.BarrierNs, hr.BarrierNs)
	}
	if round < 0 {
		return // init/memoization time is reported, but it is not a BSP round
	}
	rp := RoundPath{Round: round, Gate: -1}
	var minStart, maxEnd int64
	first := true
	// Uncertainty bound: comparing two aligned stamps is off by at most the
	// sum of the two clocks' uncertainties; take the two largest.
	var u1, u2 int64
	for h, hr := range hosts {
		rp.Hosts = append(rp.Hosts, *hr)
		if first || hr.StartNs < minStart {
			minStart = hr.StartNs
		}
		if first || hr.EndNs > maxEnd {
			maxEnd = hr.EndNs
		}
		first = false
		if u := b.unc[h]; u >= u1 {
			u1, u2 = u, u1
		} else if u > u2 {
			u2 = u
		}
	}
	sort.Slice(rp.Hosts, func(i, j int) bool { return rp.Hosts[i].Host < rp.Hosts[j].Host })
	rp.WallNs = maxEnd - minStart
	rp.UncertaintyNs = u1 + u2
	// Gate: last barrier arrival (latest recorded activity when no host
	// recorded a barrier — a truncated tail round).
	arrive := func(hr *HostRound) int64 {
		if hr.arrived {
			return hr.ArriveNs
		}
		return hr.EndNs
	}
	var gate *HostRound
	var runnerUp int64
	for i := range rp.Hosts {
		hr := &rp.Hosts[i]
		a := arrive(hr)
		if gate == nil || a > arrive(gate) {
			if gate != nil {
				runnerUp = arrive(gate)
			}
			gate = hr
		} else if a > runnerUp {
			runnerUp = a
		}
	}
	rp.Gate = gate.Host
	if len(rp.Hosts) > 1 {
		rp.MarginNs = arrive(gate) - runnerUp
	}
	// Gating phase: the gate's largest taxonomy bucket.
	best := CritCompute
	for cp := CritPhase(0); cp < NumCritPhases; cp++ {
		if gate.SubNs[cp] > gate.SubNs[best] {
			best = cp
		}
	}
	rp.GatePhase = best
	b.done = append(b.done, rp)
	gc := b.gates[gate.Host]
	if gc == nil {
		gc = &GateCount{Host: gate.Host, Phases: make(map[string]int)}
		b.gates[gate.Host] = gc
	}
	gc.Count++
	gc.Phases[best.String()]++
	for i := range rp.Hosts {
		hr := &rp.Hosts[i]
		tot := b.totals[hr.Host]
		if tot == nil {
			tot = &HostPhaseSum{Host: hr.Host}
			b.totals[hr.Host] = tot
		}
		tot.Rounds++
		tot.Bytes += hr.Bytes
		for cp := CritPhase(0); cp < NumCritPhases; cp++ {
			tot.SubNs[cp] += hr.SubNs[cp]
		}
	}
}

// Rounds returns every finalized round, ascending.
func (b *CriticalBuilder) Rounds() []RoundPath {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]RoundPath(nil), b.done...)
}

// Tail returns the newest k finalized rounds, ascending.
func (b *CriticalBuilder) Tail(k int) []RoundPath {
	b.mu.Lock()
	defer b.mu.Unlock()
	if k <= 0 || k > len(b.done) {
		k = len(b.done)
	}
	return append([]RoundPath(nil), b.done[len(b.done)-k:]...)
}

// Verdict summarizes the gating counts over all finalized rounds.
func (b *CriticalBuilder) Verdict() Verdict {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := Verdict{Rounds: len(b.done)}
	for _, gc := range b.gates {
		c := *gc
		c.Phases = make(map[string]int, len(gc.Phases))
		for k, n := range gc.Phases {
			c.Phases[k] = n
		}
		v.Gates = append(v.Gates, c)
	}
	sort.Slice(v.Gates, func(i, j int) bool {
		if v.Gates[i].Count != v.Gates[j].Count {
			return v.Gates[i].Count > v.Gates[j].Count
		}
		return v.Gates[i].Host < v.Gates[j].Host
	})
	return v
}

// HostTotals returns the cumulative per-host taxonomy sums, by host.
func (b *CriticalBuilder) HostTotals() []HostPhaseSum {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]HostPhaseSum, 0, len(b.totals))
	for _, t := range b.totals {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// Ledger computes the effectiveness model over the rounds finalized so far.
// In live use the channel capacities are still evolving, so early snapshots
// under-estimate the baseline; the offline path (FinalizeAll first) is exact
// for the model.
func (b *CriticalBuilder) Ledger() Ledger {
	b.mu.Lock()
	defer b.mu.Unlock()
	l := Ledger{Rounds: len(b.done), Channels: len(b.channels)}
	rounds := uint64(len(b.done))
	for _, cs := range b.channels {
		l.Messages += cs.msgs
		l.ShippedBytes += cs.shipped
		l.RawBytes += cs.raw
		l.CompressionSavedBytes += cs.saved
		if cs.capacity*cs.msgs > cs.raw {
			l.SparsitySavedBytes += cs.capacity*cs.msgs - cs.raw
		}
		present := uint64(cs.present)
		if present > rounds {
			present = rounds // messages of rounds not yet finalized
		}
		silent := rounds - present
		l.SilentChannelRounds += silent
		l.InvariantSavedBytes += silent * cs.capacity
	}
	l.BaselineBytes = l.ShippedBytes + l.CompressionSavedBytes +
		l.SparsitySavedBytes + l.InvariantSavedBytes
	if l.ShippedBytes > 0 && b.sendNs > 0 {
		l.WireNsPerByte = float64(b.sendNs) / float64(l.ShippedBytes)
	}
	return l
}

// uncertaintyBound returns the worst cross-host comparison bound declared.
func (b *CriticalBuilder) uncertaintyBound() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var u1, u2 int64
	for _, u := range b.unc {
		if u >= u1 {
			u1, u2 = u, u1
		} else if u > u2 {
			u2 = u
		}
	}
	return u1 + u2
}

// buildAll feeds a whole trace, already on one time axis, through one
// builder and closes every round; meta's clock table supplies the
// uncertainty bounds.
func buildAll(meta Meta, events []Event) *CriticalBuilder {
	b := NewCriticalBuilder()
	for _, ci := range meta.Clocks {
		b.SetHostClock(ci.Host, ci.UncertaintyNs)
	}
	b.Ingest(events, 0)
	b.FinalizeAll()
	return b
}

// ComputeCriticalPath attributes a full trace offline. The events must share
// one time axis already — which both single-process exports and collector-
// merged exports do (the merge applies the sideband offsets); meta's clock
// table supplies the uncertainty bounds stamped on the verdicts.
func ComputeCriticalPath(meta Meta, events []Event) *CriticalPath {
	b := buildAll(meta, events)
	return &CriticalPath{
		Label:         meta.Label,
		UncertaintyNs: b.uncertaintyBound(),
		Rounds:        b.Rounds(),
		Hosts:         b.HostTotals(),
		Verdict:       b.Verdict(),
		Ledger:        b.Ledger(),
	}
}

// WriteTables prints the attribution the way gluon-trace -critical shows it.
func (cp *CriticalPath) WriteTables(w io.Writer) error {
	label := cp.Label
	if label != "" {
		label = " (" + label + ")"
	}
	if _, err := fmt.Fprintf(w, "critical path%s: %d attributed rounds, %d hosts, clock bound ±%v\n",
		label, len(cp.Rounds), len(cp.Hosts), round3(time.Duration(cp.UncertaintyNs))); err != nil {
		return err
	}
	if len(cp.Rounds) > 0 {
		fmt.Fprintf(w, "%6s %12s %6s %-15s %12s %12s %12s %12s %12s\n",
			"round", "wall", "gate", "gate-phase", "margin", "compute", "sync", "wait", "residual")
		for i := range cp.Rounds {
			r := &cp.Rounds[i]
			g := r.HostPath(r.Gate)
			var comp, syn, wait time.Duration
			if g != nil {
				comp, syn, wait = time.Duration(g.ComputeNs), time.Duration(g.SyncNs), time.Duration(g.BarrierNs)
			}
			fmt.Fprintf(w, "%6d %12v %6s %-15s %12v %12v %12v %12v %+12v\n",
				r.Round, round3(time.Duration(r.WallNs)), fmt.Sprintf("h%d", r.Gate), r.GatePhase,
				round3(time.Duration(r.MarginNs)), round3(comp), round3(syn), round3(wait),
				round3(time.Duration(r.Residual())))
		}
		fmt.Fprintln(w)
	}
	if len(cp.Hosts) > 0 {
		fmt.Fprintln(w, "per-host path breakdown (worker-lane sums over attributed rounds):")
		fmt.Fprintf(w, "%6s %10s", "host", "bytes")
		for cpx := CritPhase(0); cpx < NumCritPhases; cpx++ {
			fmt.Fprintf(w, " %14s", cpx)
		}
		fmt.Fprintln(w)
		for i := range cp.Hosts {
			h := &cp.Hosts[i]
			fmt.Fprintf(w, "%6d %10s", h.Host, FormatBytes(h.Bytes))
			for cpx := CritPhase(0); cpx < NumCritPhases; cpx++ {
				fmt.Fprintf(w, " %14v", round3(time.Duration(h.SubNs[cpx])))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	if v := cp.Verdict; len(v.Gates) > 0 {
		fmt.Fprint(w, "gating verdict:")
		for _, g := range v.Gates {
			fmt.Fprintf(w, " host %d ×%d (%s);", g.Host, g.Count, phaseCountList(g.Phases))
		}
		fmt.Fprintf(w, " — %s\n\n", v.String())
	}
	return cp.Ledger.WriteTable(w)
}

// phaseCountList renders a phase histogram compactly, largest first.
func phaseCountList(phases map[string]int) string {
	type pc struct {
		name string
		n    int
	}
	list := make([]pc, 0, len(phases))
	for n, c := range phases {
		list = append(list, pc{n, c})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].name < list[j].name
	})
	s := ""
	for i, p := range list {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s ×%d", p.name, p.n)
	}
	return s
}

// WriteTable prints the paper-style "sync volume/time saved by optimization
// X" ledger.
func (l *Ledger) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "optimization ledger (modeled vs naive dense broadcast, %d channels × %d rounds):\n",
		l.Channels, l.Rounds); err != nil {
		return err
	}
	rate := ""
	if l.WireNsPerByte > 0 {
		rate = fmt.Sprintf("   (wire observed at %.1fns/B)", l.WireNsPerByte)
	}
	fmt.Fprintf(w, "  %-28s %10s%s\n", "shipped on the wire", FormatBytes(l.ShippedBytes), rate)
	fmt.Fprintf(w, "  %-28s %10s\n", "naive-broadcast baseline", FormatBytes(l.BaselineBytes))
	row := func(name string, bytes uint64, extra string) {
		saved := ""
		if l.WireNsPerByte > 0 {
			saved = fmt.Sprintf("   (~%v sync time)", round3(time.Duration(l.SavedNs(bytes))))
		}
		fmt.Fprintf(w, "  %-28s %10s%s%s\n", name, FormatBytes(bytes), saved, extra)
	}
	row("saved by update sparsity", l.SparsitySavedBytes, "")
	row("saved by invariant skips", l.InvariantSavedBytes,
		fmt.Sprintf("   [%d silent channel-rounds]", l.SilentChannelRounds))
	row("saved by compression", l.CompressionSavedBytes, "")
	fmt.Fprintln(w, "  (channels structurally elided never appear in a trace; the model undercounts those)")
	return nil
}

// CommCounters is the compact comm-volume summary a perf-history record
// carries alongside its timings: the ledger distilled to three trajectory
// numbers, so `gluon-trace perf` can show whether a change moved bytes as well
// as nanoseconds (DESIGN.md §4.9).
type CommCounters struct {
	// BytesPerRound is shipped wire bytes per attributed round.
	BytesPerRound float64 `json:"bytes_per_round"`
	// CompressionRatio is raw/shipped (1 = compression saved nothing).
	CompressionRatio float64 `json:"compression_ratio"`
	// InvariantSkipShare is the fraction of channel-rounds that shipped
	// nothing, in [0,1].
	InvariantSkipShare float64 `json:"invariant_skip_share"`
}

// Counters distills the ledger into its perf-history record form.
func (l *Ledger) Counters() CommCounters {
	var c CommCounters
	if l.Rounds > 0 {
		c.BytesPerRound = float64(l.ShippedBytes) / float64(l.Rounds)
	}
	if l.ShippedBytes > 0 {
		c.CompressionRatio = float64(l.RawBytes) / float64(l.ShippedBytes)
	}
	if cr := uint64(l.Channels) * uint64(l.Rounds); cr > 0 {
		c.InvariantSkipShare = float64(l.SilentChannelRounds) / float64(cr)
	}
	return c
}

// LedgerOf attributes a live single-process session offline and returns
// its effectiveness ledger — the plumbing from an instrumented probe run
// to a perf-history record.
func LedgerOf(t *Trace) Ledger {
	events, _ := t.Snapshot()
	return buildAll(Meta{}, events).Ledger()
}
