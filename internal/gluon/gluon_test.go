package gluon

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/generate"
	"gluon/internal/graph"
	"gluon/internal/partition"
)

// testParts partitions an rmat graph of the given scale across hosts.
func testParts(tb testing.TB, kind partition.Kind, hosts int, scale uint) []*partition.Partition {
	tb.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: scale, EdgeFactor: 8, Seed: 21}
	edges, err := generate.Edges(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]uint32, cfg.NumNodes())
	for u := uint32(0); u < g.NumNodes(); u++ {
		out[u] = g.OutDegree(u)
	}
	pol, err := partition.NewPolicy(kind, cfg.NumNodes(), hosts,
		partition.Options{OutDegrees: out, InDegrees: g.InDegrees()})
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := partition.PartitionAll(cfg.NumNodes(), edges, pol)
	if err != nil {
		tb.Fatal(err)
	}
	return parts
}

// newCluster constructs a Gluon instance per partition over hub, every
// host concurrently as New requires.
func newCluster(parts []*partition.Partition, hub *comm.Hub, opt Options) ([]*Gluon, error) {
	gs := make([]*Gluon, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for h := range parts {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			gs[h], errs[h] = New(parts[h], hub.Endpoint(h), opt)
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("host %d: %w", h, err)
		}
	}
	return gs, nil
}

// buildCluster partitions a small rmat graph and constructs a Gluon
// instance per host over an in-process hub.
func buildCluster(t testing.TB, kind partition.Kind, hosts int, opt Options) []*Gluon {
	t.Helper()
	hub := comm.NewHub(hosts)
	t.Cleanup(hub.Close)
	gs, err := newCluster(testParts(t, kind, hosts, 8), hub, opt)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

// TestNewSharesMirrorOrders: two concurrent jobs on one partitioning take
// the mirror-side orders from the partitions' cache, built once, while each
// keeps master-side orders of its own.
func TestNewSharesMirrorOrders(t *testing.T) {
	parts := testParts(t, partition.CVC, 4, 8)
	var clusters [2][]*Gluon
	var errs [2]error
	var wg sync.WaitGroup
	for i := range clusters {
		hub := comm.NewHub(4)
		t.Cleanup(hub.Close)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clusters[i], errs[i] = newCluster(parts, hub, Opt())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	first, second := clusters[0], clusters[1]
	for h, p := range parts {
		mo := p.MirrorOrders()
		for _, g := range []*Gluon{first[h], second[h]} {
			if &g.mirrors.Lists[0] != &mo.All.Lists[0] || &g.mirrorsIn.Lists[0] != &mo.In.Lists[0] ||
				&g.mirrorsOut.Lists[0] != &mo.Out.Lists[0] || &g.mirrors.Masks[0] != &mo.All.Masks[0] {
				t.Fatalf("host %d: mirror orders not shared with the partition", h)
			}
		}
		if &first[h].masters.Lists[0] == &second[h].masters.Lists[0] {
			t.Fatalf("host %d: master orders shared between jobs", h)
		}
		if !reflect.DeepEqual(first[h].masters.Lists, second[h].masters.Lists) {
			t.Fatalf("host %d: master orders differ between jobs", h)
		}
	}
}

// memoPayload encodes a memoization message listing gids (flags clear).
func memoPayload(gids ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(gids)))
	for _, gid := range gids {
		b = binary.LittleEndian.AppendUint64(b, gid)
		b = append(b, 0)
	}
	return b
}

// TestDecodeMemoRejects: the master-side decode translates an ascending
// list of my masters and rejects out-of-order, duplicate, foreign and
// malformed lists with an error naming the problem.
func TestDecodeMemoRejects(t *testing.T) {
	g := buildCluster(t, partition.OEC, 2, Opt())[0]
	p := g.Part
	if p.NumMasters < 3 || p.NumProxies() == p.NumMasters {
		t.Fatalf("test partition too small: %d masters of %d proxies", p.NumMasters, p.NumProxies())
	}
	m0, m1, m2 := p.GID(0), p.GID(1), p.GID(2)
	all, _, _, err := g.decodeMemo(1, memoPayload(m0, m2))
	if err != nil || !reflect.DeepEqual(all, []uint32{0, 2}) {
		t.Fatalf("valid list decoded to %v, %v", all, err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"descending", memoPayload(m1, m0), "strictly ascending"},
		{"duplicate", memoPayload(m1, m1), "strictly ascending"},
		{"mirror", memoPayload(m0, p.GID(p.NumMasters)), "not my master"},
		{"unknown", memoPayload(m0, p.GlobalNodes+5), "not my master"},
		{"truncated", memoPayload(m0, m1)[:12], "bytes for 2 GIDs"},
		{"short", []byte{1}, "too short"},
	} {
		if _, _, _, err := g.decodeMemo(1, c.payload); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestMemoizationAlignment: for every host pair, the sender's mirror list
// and the receiver's master list have identical lengths and refer to the
// same global IDs in the same order — the §4.1 contract that lets values
// travel without IDs.
func TestMemoizationAlignment(t *testing.T) {
	for _, kind := range partition.AllKinds() {
		t.Run(string(kind), func(t *testing.T) {
			gs := buildCluster(t, kind, 4, Opt())
			for a := range gs {
				for b := range gs {
					if a == b {
						continue
					}
					mirrors := gs[a].mirrors.Lists[b]
					masters := gs[b].masters.Lists[a]
					if len(mirrors) != len(masters) {
						t.Fatalf("pair (%d,%d): %d mirrors vs %d masters", a, b, len(mirrors), len(masters))
					}
					for i := range mirrors {
						ga := gs[a].Part.GID(mirrors[i])
						gb := gs[b].Part.GID(masters[i])
						if ga != gb {
							t.Fatalf("pair (%d,%d) position %d: gid %d vs %d", a, b, i, ga, gb)
						}
					}
					// Structural subsets align too.
					for i := range gs[a].mirrorsIn.Lists[b] {
						if gs[a].Part.GID(gs[a].mirrorsIn.Lists[b][i]) != gs[b].Part.GID(gs[b].mastersIn.Lists[a][i]) {
							t.Fatalf("pair (%d,%d): mirrorsIn misaligned at %d", a, b, i)
						}
					}
					for i := range gs[a].mirrorsOut.Lists[b] {
						if gs[a].Part.GID(gs[a].mirrorsOut.Lists[b][i]) != gs[b].Part.GID(gs[b].mastersOut.Lists[a][i]) {
							t.Fatalf("pair (%d,%d): mirrorsOut misaligned at %d", a, b, i)
						}
					}
				}
				if err := gs[a].VerifyMemoization(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStructuralPatternsPerPolicy: the §3.2 table — which sync patterns a
// push-style (write-at-destination, read-at-source) field needs under each
// policy.
func TestStructuralPatternsPerPolicy(t *testing.T) {
	cases := []struct {
		kind          partition.Kind
		wantReduce    bool
		wantBroadcast bool
	}{
		{partition.OEC, true, false}, // reduce only
		{partition.IEC, false, true}, // broadcast only
		{partition.CVC, true, true},  // both, on subsets
		{partition.HVC, true, true},  // both
	}
	for _, c := range cases {
		t.Run(string(c.kind), func(t *testing.T) {
			gs := buildCluster(t, c.kind, 4, Opt())
			anyReduce, anyBroadcast := false, false
			for _, g := range gs {
				if g.ReduceNeeded(AtDestination) {
					anyReduce = true
				}
				if g.BroadcastNeeded(AtSource) {
					anyBroadcast = true
				}
			}
			if anyReduce != c.wantReduce {
				t.Errorf("reduce needed = %v, want %v", anyReduce, c.wantReduce)
			}
			if anyBroadcast != c.wantBroadcast {
				t.Errorf("broadcast needed = %v, want %v", anyBroadcast, c.wantBroadcast)
			}
		})
	}
}

// TestCVCSubsetsAreProper: under CVC, the structurally-pruned mirror sets
// are strictly smaller than the full mirror sets (the whole point of OSI).
func TestCVCSubsetsAreProper(t *testing.T) {
	gs := buildCluster(t, partition.CVC, 4, Opt())
	var full, inSub, outSub int
	for _, g := range gs {
		for h := range g.mirrors.Lists {
			full += len(g.mirrors.Lists[h])
			inSub += len(g.mirrorsIn.Lists[h])
			outSub += len(g.mirrorsOut.Lists[h])
		}
	}
	if inSub >= full || outSub >= full {
		t.Fatalf("cvc subsets not proper: full=%d in=%d out=%d", full, inSub, outSub)
	}
	if inSub+outSub != full {
		// Under CVC a mirror has in- xor out-edges (or neither, if it only
		// exists... it can't: a proxy exists because an edge touches it).
		t.Fatalf("cvc: in+out=%d != full=%d", inSub+outSub, full)
	}
}

// TestPartnersShrinkWithOptimizations: the §5.6 partner-count effect —
// structural invariants never increase, and under CVC strictly decrease,
// the set of hosts a broadcast touches compared to the all-mirrors pattern.
func TestPartnersShrinkWithOptimizations(t *testing.T) {
	const hosts = 9 // 3x3 CVC grid
	optOn := buildCluster(t, partition.CVC, hosts, Opt())
	optOff := buildCluster(t, partition.CVC, hosts, Options{TemporalInvariance: true})

	var onMax, offMax int
	for h := 0; h < hosts; h++ {
		_, bOn := optOn[h].Partners(AtDestination, AtSource)
		_, bOff := optOff[h].Partners(AtDestination, AtSource)
		if bOn > onMax {
			onMax = bOn
		}
		if bOff > offMax {
			offMax = bOff
		}
		if bOn > bOff {
			t.Fatalf("host %d: optimized broadcast partners %d exceed unoptimized %d", h, bOn, bOff)
		}
	}
	if onMax >= offMax {
		t.Fatalf("CVC broadcast partners did not shrink: opt %d vs unopt %d", onMax, offMax)
	}
	t.Logf("max broadcast partners: optimized %d, unoptimized %d (of %d possible)", onMax, offMax, hosts-1)
}

// fakeGluon builds a 1-host Gluon for encode/decode testing (no peers, so
// memoization is trivial).
func fakeGluon(t *testing.T, opt Options) *Gluon {
	t.Helper()
	gs := buildClusterSingle(t, opt)
	return gs
}

func buildClusterSingle(t *testing.T, opt Options) *Gluon {
	t.Helper()
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	pol, err := partition.NewPolicy(partition.OEC, 4, 1, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(4, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	hub := comm.NewHub(1)
	t.Cleanup(hub.Close)
	g, err := New(parts[0], hub.Endpoint(0), opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEncodeDecodeRoundTripModes: every encoding mode reproduces exactly
// the updated (position, value) pairs.
func TestEncodeDecodeRoundTripModes(t *testing.T) {
	g := fakeGluon(t, Opt())
	// Order over the local proxies of the single host (all masters).
	n := int(g.Part.NumProxies())
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	vals := []uint32{100, 200, 300, 400}

	cases := []struct {
		name    string
		updated []uint32 // nil means all
	}{
		{"empty", []uint32{}},
		{"one", []uint32{2}},
		{"some", []uint32{0, 3}},
		{"all-dense", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var upd *bitset.Bitset
			want := map[uint32]uint32{}
			if c.updated != nil {
				upd = bitset.New(uint32(n))
				for _, i := range c.updated {
					upd.SetUnsync(i)
					want[i] = vals[i]
				}
			} else {
				for i, v := range vals {
					want[uint32(i)] = v
				}
			}
			payload, sent := encodeForTest(g, order, upd, gatherU32(func(lid uint32) uint32 { return vals[lid] }))
			if c.updated != nil && len(sent) < len(c.updated) {
				t.Fatalf("sent %d lids, want at least %d", len(sent), len(c.updated))
			}
			if c.updated != nil && payload[0] != modeDense && len(sent) != len(c.updated) {
				t.Fatalf("sparse mode sent %d lids, want exactly %d", len(sent), len(c.updated))
			}
			got := map[uint32]uint32{}
			if err := decodeMsg(g, payload, order, func(lid uint32, v uint32) {
				got[lid] = v
			}); err != nil {
				t.Fatal(err)
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("lid %d: got %d, want %d", k, got[k], v)
				}
			}
			// Dense mode may deliver extra (unchanged) values; sparse modes
			// must deliver exactly the updates.
			if payload[0] == modeBitvec || payload[0] == modeIndices || payload[0] == modeGIDs {
				if len(got) != len(want) {
					t.Fatalf("sparse mode delivered %d values, want %d", len(got), len(want))
				}
			}
		})
	}
}

// TestEncodeModeSelection: the encoder picks the expected mode by density.
func TestEncodeModeSelection(t *testing.T) {
	g := fakeGluon(t, Opt())
	const n = 1024
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i % 4) // lids just need to be valid
	}
	extract := gatherU32(func(lid uint32) uint32 { return lid })

	mk := func(k int) *bitset.Bitset {
		b := bitset.New(uint32(g.Part.NumProxies()))
		// Mark k of the 4 distinct lids as updated: we need density over the
		// order, so instead mark via positions — use a fresh order of unique
		// lids for this test.
		_ = k
		return b
	}
	_ = mk

	// Unique-lid order over a larger fake proxy space is not available on
	// this tiny partition, so test mode selection through payload size
	// directly with the 4-proxy order repeated: updated=nil forces dense.
	payload, _ := encodeForTest(g, order, nil, extract)
	if payload[0] != modeDense {
		t.Fatalf("nil updated: mode %d, want dense", payload[0])
	}
	// No updates: empty.
	empty := bitset.New(uint32(g.Part.NumProxies()))
	payload, _ = encodeForTest(g, order[:16], empty, extract)
	if payload[0] != modeEmpty || len(payload) != 1 {
		t.Fatalf("no updates: mode %d len %d", payload[0], len(payload))
	}
	// One update out of many: indices beat bitvec and dense.
	one := bitset.New(uint32(g.Part.NumProxies()))
	one.SetUnsync(1)
	uniq := []uint32{0, 1, 2, 3}
	bigOrder := make([]uint32, 0, 256)
	for len(bigOrder) < 256 {
		bigOrder = append(bigOrder, uniq...)
	}
	payload, _ = encodeForTest(g, bigOrder, one, extract)
	if payload[0] != modeBitvec && payload[0] != modeIndices {
		t.Fatalf("sparse updates: mode %d, want bitvec or indices", payload[0])
	}
}

// TestUnoptUsesGIDPairs: with temporal invariance off, messages are
// (global-ID, value) pairs.
func TestUnoptUsesGIDPairs(t *testing.T) {
	g := fakeGluon(t, Options{})
	order := []uint32{0, 1, 2, 3}
	upd := bitset.New(g.Part.NumProxies())
	upd.SetUnsync(1)
	upd.SetUnsync(3)
	payload, sent := encodeForTest(g, order, upd, gatherU32(func(lid uint32) uint32 { return lid * 10 }))
	if payload[0] != modeGIDs {
		t.Fatalf("mode %d, want gid-pairs", payload[0])
	}
	if len(sent) != 2 {
		t.Fatalf("sent %d", len(sent))
	}
	got := map[uint32]uint32{}
	if err := decodeMsg(g, payload, order, func(lid, v uint32) { got[lid] = v }); err != nil {
		t.Fatal(err)
	}
	if got[1] != 10 || got[3] != 30 || len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

// TestDecodeRejectsCorruptMessages: malformed payloads error rather than
// panic or corrupt state.
func TestDecodeRejectsCorruptMessages(t *testing.T) {
	g := fakeGluon(t, Opt())
	order := []uint32{0, 1, 2, 3}
	apply := func(lid, v uint32) {}
	cases := [][]byte{
		{},                        // empty payload
		{99},                      // unknown mode
		{modeDense, 1, 2},         // dense with wrong length
		{modeBitvec, 1},           // short bitvec
		{modeIndices, 1, 0, 0, 0}, // indices count without body
		{modeGIDs, 2},             // short gid header
	}
	for i, payload := range cases {
		if err := decodeMsg[uint32](g, payload, order, apply); err == nil {
			t.Errorf("case %d: corrupt payload accepted", i)
		}
	}
	// Indices out of range.
	payload, _ := encodeForTest(g, order, func() *bitset.Bitset {
		b := bitset.New(g.Part.NumProxies())
		b.SetUnsync(0)
		return b
	}(), gatherU32(func(lid uint32) uint32 { return 0 }))
	if payload[0] == modeIndices {
		payload[5] = 200 // out-of-range position
		if err := decodeMsg[uint32](g, payload, order, apply); err == nil {
			t.Error("out-of-range index accepted")
		}
	}
}

// TestQuickEncodeDecodeRoundTrip: arbitrary update subsets and uint64
// values survive encoding under the optimized wire format.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	g := fakeGluon(t, Opt())
	order := []uint32{0, 1, 2, 3}
	f := func(updMask uint8, v0, v1, v2, v3 uint64) bool {
		vals := []uint64{v0, v1, v2, v3}
		upd := bitset.New(g.Part.NumProxies())
		want := map[uint32]uint64{}
		for i := uint32(0); i < 4; i++ {
			if updMask&(1<<i) != 0 {
				upd.SetUnsync(i)
				want[i] = vals[i]
			}
		}
		payload, _ := encodeForTest(g, order, upd, gatherU64(func(lid uint32) uint64 { return vals[lid] }))
		got := map[uint32]uint64{}
		if err := decodeMsg(g, payload, order, func(lid uint32, v uint64) { got[lid] = v }); err != nil {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAccounting: encode updates the mode counters and byte split.
func TestStatsAccounting(t *testing.T) {
	g := fakeGluon(t, Opt())
	order := []uint32{0, 1, 2, 3}
	encodeForTest(g, order, nil, gatherU32(func(lid uint32) uint32 { return 0 }))
	s := g.Stats()
	if s.MessagesSent != 1 || s.ModeCounts[modeDense] != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.ValueBytes != 16 || s.MetadataBytes != 1 {
		t.Fatalf("byte split: values=%d metadata=%d", s.ValueBytes, s.MetadataBytes)
	}
	g.ResetStats()
	if g.Stats().MessagesSent != 0 {
		t.Fatal("ResetStats did not reset")
	}
}

// TestValueCodec: every Value type round-trips through the wire helpers.
func TestValueCodec(t *testing.T) {
	buf := make([]byte, 8)
	putVal(buf, uint32(0xdeadbeef))
	if getVal[uint32](buf) != 0xdeadbeef {
		t.Fatal("uint32")
	}
	putVal(buf, int32(-7))
	if getVal[int32](buf) != -7 {
		t.Fatal("int32")
	}
	putVal(buf, float32(1.5))
	if getVal[float32](buf) != 1.5 {
		t.Fatal("float32")
	}
	putVal(buf, uint64(1<<60))
	if getVal[uint64](buf) != 1<<60 {
		t.Fatal("uint64")
	}
	putVal(buf, int64(-1<<40))
	if getVal[int64](buf) != -1<<40 {
		t.Fatal("int64")
	}
	putVal(buf, 3.14159)
	if getVal[float64](buf) != 3.14159 {
		t.Fatal("float64")
	}
	if valSize[uint32]() != 4 || valSize[float64]() != 8 {
		t.Fatal("valSize")
	}
}

func TestNewRejectsMismatchedTransport(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}}
	pol, _ := partition.NewPolicy(partition.OEC, 2, 2, partition.Options{})
	parts, err := partition.PartitionAll(2, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	hub := comm.NewHub(2)
	defer hub.Close()
	// Partition for host 1 with transport of host 0.
	if _, err := New(parts[1], hub.Endpoint(0), Opt()); err == nil {
		t.Fatal("mismatched host IDs accepted")
	}
}

// encodeForTest drives encodeMsg the way the sync path does — order mask,
// fresh scratch, worker-local stats folded into the instance — so codec
// tests exercise the production configuration without pooling.
func encodeForTest[V Value](g *Gluon, order []uint32, upd *bitset.Bitset, gather func([]uint32, []V) []V) ([]byte, []uint32) {
	var st Stats
	payload, sent := encodeMsg(g, order, bitset.NewOrderMask(order), upd, gather, &encodeScratch{}, &st)
	g.foldStats(&st)
	return payload, sent
}

// gatherU32 adapts a per-lid extractor into the bulk gather form encodeMsg
// takes.
func gatherU32(extract func(uint32) uint32) func([]uint32, []uint32) []uint32 {
	return func(lids []uint32, dst []uint32) []uint32 {
		dst = dst[:len(lids)]
		for i, lid := range lids {
			dst[i] = extract(lid)
		}
		return dst
	}
}

func gatherU64(extract func(uint32) uint64) func([]uint32, []uint64) []uint64 {
	return func(lids []uint32, dst []uint64) []uint64 {
		dst = dst[:len(lids)]
		for i, lid := range lids {
			dst[i] = extract(lid)
		}
		return dst
	}
}

func ExampleOpt() {
	o := Opt()
	fmt.Println(o.StructuralInvariants, o.TemporalInvariance)
	// Output: true true
}
