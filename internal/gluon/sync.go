package gluon

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/par"
	"gluon/internal/partition"
	"gluon/internal/trace"
)

// Location says at which edge endpoint a field is written or read by the
// operator, the information the sync call carries in the paper's API
// (WriteAtDestination / ReadAtSource in Figure 4).
type Location uint8

// Endpoint locations.
const (
	// AtDestination: the operator touches the field at edge destinations
	// (push-style writes, pull-style writes to the active node).
	AtDestination Location = iota
	// AtSource: the operator touches the field at edge sources.
	AtSource
	// Anywhere: no structural restriction can be assumed.
	Anywhere
)

// ReduceSpec is the reduce synchronization structure of §3.3. Mirrors call
// Extract to read partial values; masters call Reduce to fold a received
// value in (returning whether the master's value changed); mirrors call
// Reset to return to the reduction identity after their value is shipped.
//
// Contract required by the dense encoding: Extract on a proxy that was not
// updated this round must yield a value that is a no-op under Reduce
// (i.e. the reduction identity, or an already-incorporated value of an
// idempotent reduction such as min).
//
// Messages for different peers are encoded by parallel workers, so Extract
// and Reset must be safe to call concurrently on distinct lids (per-element
// reads/writes of a label array qualify; the per-peer mirror sets they run
// over are disjoint).
type ReduceSpec[V Value] interface {
	Extract(lid uint32) V
	Reduce(lid uint32, v V) bool
	Reset(lid uint32)
}

// BroadcastSpec is the broadcast synchronization structure of §3.3.
// Masters call Extract; mirrors call Set with the canonical value, returning
// whether the mirror's stored value changed. Extract must be safe to call
// concurrently on the same lid (parallel workers encode overlapping master
// orders); pure reads qualify.
type BroadcastSpec[V Value] interface {
	Extract(lid uint32) V
	Set(lid uint32, v V) bool
}

// BulkExtractor is the optional bulk variant of Extract the paper provides
// for GPUs (§3.3): the runtime hands the whole memoized order (or the
// updated subset) at once, so a device engine can stage one device→host
// copy instead of per-node callbacks. Specs that implement it are detected
// dynamically; dst has the required capacity.
type BulkExtractor[V Value] interface {
	ExtractBulk(lids []uint32, dst []V) []V
}

// gatherFor builds the value-gather function for a spec, preferring the
// bulk variant when the spec provides one.
func gatherFor[V Value](spec interface{ Extract(lid uint32) V }) func(lids []uint32, dst []V) []V {
	if be, ok := spec.(BulkExtractor[V]); ok {
		return be.ExtractBulk
	}
	return func(lids []uint32, dst []V) []V {
		dst = dst[:len(lids)]
		for i, lid := range lids {
			dst[i] = spec.Extract(lid)
		}
		return dst
	}
}

// Field describes one synchronizable node field: where the operator writes
// and reads it, and how to move its values. It corresponds to one
// sync<WriteLoc, ReadLoc, Reduce, Broadcast>() instantiation in the paper.
type Field[V Value] struct {
	// ID must be unique among concurrently synchronized fields; it
	// namespaces message tags.
	ID uint32
	// Name is used in diagnostics only.
	Name string
	// Write is where the operator writes the field; Read where it reads it.
	Write, Read Location
	Reduce      ReduceSpec[V]
	Broadcast   BroadcastSpec[V]
}

// Message encoding modes (§4.2).
const (
	modeEmpty   byte = 0 // no updates
	modeDense   byte = 1 // values for every proxy in the memoized order
	modeBitvec  byte = 2 // bit-vector over the order + packed updated values
	modeIndices byte = 3 // index list + packed updated values
	modeGIDs    byte = 4 // (global-ID, value) pairs; the pre-Gluon wire format
)

func (g *Gluon) reduceTag(fieldID uint32) comm.Tag {
	return comm.TagUser + comm.Tag(fieldID)*2
}

func (g *Gluon) broadcastTag(fieldID uint32) comm.Tag {
	return comm.TagUser + comm.Tag(fieldID)*2 + 1
}

// Sync synchronizes one field across all hosts: a reduce phase (mirror
// values folded into masters) followed by a broadcast phase (canonical
// values pushed back to mirrors), each restricted to the structurally
// necessary proxy subsets. For OEC partitions of push-style fields the
// broadcast phase is empty; for IEC the reduce phase is empty; CVC uses
// proper subsets of mirrors in both; unconstrained cuts use all mirrors.
//
// updated tracks which local proxies changed this round; Sync consumes
// mirror bits it ships (resetting those mirrors), adds bits for masters
// changed by reduce and mirrors changed by broadcast, so that on return
// updated holds exactly the proxies whose values are new — the engine's
// next frontier. A nil updated means "assume everything changed".
//
// Both phases are pipelined: per-peer messages are encoded by parallel
// workers (Options.SyncWorkers) into pooled buffers, and received messages
// are applied in arrival order (Transport.RecvAny), so one slow link never
// idles the host. Neither changes what is sent: per-peer payload bytes and
// encoding-mode choices are identical to a serial, fixed-order sync.
func Sync[V Value](g *Gluon, f Field[V], updated *bitset.Bitset) error {
	if f.Reduce != nil {
		if err := SyncReduce(g, f, updated); err != nil {
			return err
		}
	}
	if f.Broadcast != nil {
		if err := SyncBroadcast(g, f, updated); err != nil {
			return err
		}
	}
	return nil
}

// modeDelta returns the wire encoding mode of the one message encoded
// between the st0 snapshot and st (the ModeCounts slot that advanced).
func modeDelta(st, st0 *Stats) int8 {
	for i := range st.ModeCounts {
		if st.ModeCounts[i] != st0.ModeCounts[i] {
			return int8(i)
		}
	}
	return -1
}

// compDelta returns the trace compression tag of the one message encoded
// between the st0 snapshot and st: shipped compressed, considered but
// skipped, or not a candidate (compression off).
func compDelta(st, st0 *Stats) int8 {
	switch {
	case st.CompressedMessages != st0.CompressedMessages:
		return trace.CompShipped
	case st.CompressSkipped != st0.CompressSkipped:
		return trace.CompSkipped
	default:
		return trace.CompNone
	}
}

// sendMsg ships one encoded message: the vectored transport path when
// compression produced a separate wrapper header, the plain path otherwise.
func sendMsg(g *Gluon, h int, tag comm.Tag, hdr, payload []byte) error {
	if hdr == nil {
		return g.T.Send(h, tag, payload)
	}
	return g.T.SendVec(h, tag, hdr, payload)
}

// SyncReduce runs only the reduce pattern for f.
func SyncReduce[V Value](g *Gluon, f Field[V], updated *bitset.Bitset) error {
	g.syncBegin()
	rec := g.rec
	tr := rec.Enabled()
	var syncT0 int64
	if tr {
		syncT0 = rec.Now()
	}
	defer func() {
		if tr {
			rec.Emit(trace.Event{Phase: trace.PhaseSync, Start: syncT0, Dur: rec.Now() - syncT0,
				Field: f.ID, Peer: -1, Detail: f.Name})
		}
		g.syncEnd()
	}()

	send, recv := g.peersForReduce(f.Write, g.Opt.StructuralInvariants)
	tag := g.reduceTag(f.ID)
	me := g.HostID()
	gatherReduce := gatherFor[V](f.Reduce)

	ps := getPeerScratch()
	sendPeers, recvPeers := ps.peerLists(g.NumHosts(), me, send, recv)

	// Ship mirror values to owners. Encoding fans out across workers — the
	// per-peer mirror sets are disjoint, so encode, Reset, and Clear for
	// different peers touch disjoint lids and words are read atomically.
	// Sends still run off the receive path so that large bidirectional
	// exchanges cannot deadlock on transport buffering.
	sendErr := ps.errChan()
	g.sendWG.Add(1)
	go func() {
		defer g.sendWG.Done()
		sendErr <- par.RangeWorkers(len(sendPeers), g.Opt.SyncWorkers, func(w, lo, hi int) error {
			defer trace.LabelPhase(trace.PhaseEncode)()
			sc := getEncodeScratch()
			defer putEncodeScratch(sc)
			var st Stats
			defer g.foldStats(&st)
			lane := int32(1 + w)
			for _, h := range sendPeers[lo:hi] {
				order := send.Lists[h]
				var t0 int64
				var st0 Stats
				if tr {
					t0, st0 = rec.Now(), st
				}
				payload, sent := encodeMsg(g, order, send.Masks[h], updated, gatherReduce, sc, &st)
				hdr, payload := g.maybeCompress(f.ID, payload, sc, &st)
				if tr {
					// Byte tags are the post-compression stats deltas of this
					// one message, so trace sums reproduce Stats exactly.
					rec.Emit(trace.Event{Phase: trace.PhaseEncode, Start: t0, Dur: rec.Now() - t0,
						Peer: int32(h), Field: f.ID, Lane: lane, Mode: modeDelta(&st, &st0),
						Value: st.ValueBytes - st0.ValueBytes, Meta: st.MetadataBytes - st0.MetadataBytes,
						GID:  st.GIDBytes - st0.GIDBytes,
						Comp: compDelta(&st, &st0), Saved: st.CompressionSaved - st0.CompressionSaved})
				}
				// Mirrors whose value was shipped return to the reduction
				// identity, and their "changed" bit migrates to the master.
				for _, lid := range sent {
					f.Reduce.Reset(lid)
					if updated != nil {
						updated.Clear(lid)
					}
				}
				if tr {
					t0 = rec.Now()
				}
				if err := sendMsg(g, h, tag, hdr, payload); err != nil {
					return fmt.Errorf("gluon: reduce %s to host %d: %w", f.Name, h, err)
				}
				if tr {
					rec.Emit(trace.Event{Phase: trace.PhaseSend, Start: t0, Dur: rec.Now() - t0,
						Peer: int32(h), Field: f.ID, Lane: lane})
				}
			}
			return nil
		})
	}()

	// Fold received mirror values into masters. Messages are received in
	// arrival order but folds run in ascending host order: a master receives
	// contributions from several peers, and order-sensitive reductions
	// (floating-point sums) must fold them in the same sequence every run to
	// keep later rounds' payload bytes deterministic. A message whose turn
	// has come folds straight out of its receive buffer — wire parsing and
	// apply are one pass, with no intermediate (lids, values) staging. A
	// message that arrives ahead of its turn is decompressed (so the CPU
	// work overlaps waiting on slower links) and parked as raw wire bytes;
	// its single decode-and-fold pass runs once its predecessors are in.
	apply := func(lid uint32, v V) {
		if f.Reduce.Reduce(lid, v) && updated != nil {
			updated.Set(lid)
		}
	}
	remaining := append(ps.rem[:0], recvPeers...)
	ps.rem = remaining
	stages := ps.hostStages(g.NumHosts())
	applyIdx := 0
	defer trace.LabelPhase(trace.PhaseFold)()
	for len(remaining) > 0 {
		var t0 int64
		if tr {
			t0 = rec.Now()
		}
		// The live-phase flips cost two atomic stores per message (nil-safe,
		// alloc-free); they let the watchdog tell a host blocked waiting on a
		// peer (a victim) from one still producing (a suspect).
		rec.SetLivePhase(trace.PhaseRecvWait)
		h, payload, err := g.T.RecvAny(tag, remaining)
		rec.SetLivePhase(trace.PhaseFold)
		if err != nil {
			releaseStages(stages)
			return fmt.Errorf("gluon: reduce %s from host %d: %w", f.Name, h, err)
		}
		if tr {
			rec.Emit(trace.Event{Phase: trace.PhaseRecvWait, Start: t0, Dur: rec.Now() - t0,
				Peer: int32(h), Field: f.ID, Value: uint64(len(payload))})
			t0 = rec.Now()
		}
		remaining = removePeer(remaining, h)
		if applyIdx < len(recvPeers) && h == recvPeers[applyIdx] {
			err = decodeMsg(g, payload, recv.Lists[h], apply)
			comm.PutBuf(payload)
			if err != nil {
				releaseStages(stages)
				g.dumpInvariant(h, err)
				return fmt.Errorf("gluon: reduce %s from host %d: %w", f.Name, h, err)
			}
			applyIdx++
			if tr {
				rec.Emit(trace.Event{Phase: trace.PhaseFold, Start: t0, Dur: rec.Now() - t0,
					Peer: int32(h), Field: f.ID})
			}
		} else {
			// Out of turn: pay decompression now, park the raw wire bytes in
			// their pooled buffer, and decode-and-fold in one pass later.
			body, pooled, derr := maybeDecompress(payload)
			if derr != nil {
				comm.PutBuf(payload)
				releaseStages(stages)
				g.dumpInvariant(h, derr)
				return fmt.Errorf("gluon: reduce %s from host %d: %w", f.Name, h, derr)
			}
			if pooled {
				comm.PutBuf(payload)
			}
			stages[h] = body
			if tr {
				rec.Emit(trace.Event{Phase: trace.PhaseFold, Start: t0, Dur: rec.Now() - t0,
					Peer: int32(h), Field: f.ID, Detail: "stage"})
			}
		}
		// Whatever is now unblocked folds while later messages are in flight.
		for applyIdx < len(recvPeers) && stages[recvPeers[applyIdx]] != nil {
			hp := recvPeers[applyIdx]
			body := stages[hp]
			stages[hp] = nil
			if tr {
				t0 = rec.Now()
			}
			derr := decodeBody(g, body, recv.Lists[hp], apply)
			comm.PutBuf(body)
			if derr != nil {
				releaseStages(stages)
				g.dumpInvariant(hp, derr)
				return fmt.Errorf("gluon: reduce %s from host %d: %w", f.Name, hp, derr)
			}
			applyIdx++
			if tr {
				rec.Emit(trace.Event{Phase: trace.PhaseFold, Start: t0, Dur: rec.Now() - t0,
					Peer: int32(hp), Field: f.ID, Detail: "unstage"})
			}
		}
	}
	err := <-sendErr
	putPeerScratch(ps) // not pooled on the error returns above: senders may still hold the lists
	return err
}

// SyncBroadcast runs only the broadcast pattern for f.
func SyncBroadcast[V Value](g *Gluon, f Field[V], updated *bitset.Bitset) error {
	return syncBroadcast(g, f, updated, g.Opt.StructuralInvariants)
}

// syncBroadcast is SyncBroadcast with the structural-invariant choice made
// explicit, so BroadcastAll can run unconstrained without mutating shared
// options.
func syncBroadcast[V Value](g *Gluon, f Field[V], updated *bitset.Bitset, structural bool) error {
	g.syncBegin()
	rec := g.rec
	tr := rec.Enabled()
	var syncT0 int64
	if tr {
		syncT0 = rec.Now()
	}
	defer func() {
		if tr {
			rec.Emit(trace.Event{Phase: trace.PhaseSync, Start: syncT0, Dur: rec.Now() - syncT0,
				Field: f.ID, Peer: -1, Detail: f.Name})
		}
		g.syncEnd()
	}()

	send, recv := g.peersForBroadcast(f.Read, structural)
	tag := g.broadcastTag(f.ID)
	me := g.HostID()
	gatherBcast := gatherFor[V](f.Broadcast)

	ps := getPeerScratch()
	sendPeers, recvPeers := ps.peerLists(g.NumHosts(), me, send, recv)

	// Master orders for different peers overlap, but broadcast encoding
	// only reads them, so the worker fan-out is safe.
	sendErr := ps.errChan()
	g.sendWG.Add(1)
	go func() {
		defer g.sendWG.Done()
		sendErr <- par.RangeWorkers(len(sendPeers), g.Opt.SyncWorkers, func(w, lo, hi int) error {
			defer trace.LabelPhase(trace.PhaseEncode)()
			sc := getEncodeScratch()
			defer putEncodeScratch(sc)
			var st Stats
			defer g.foldStats(&st)
			lane := int32(1 + w)
			for _, h := range sendPeers[lo:hi] {
				order := send.Lists[h]
				var t0 int64
				var st0 Stats
				if tr {
					t0, st0 = rec.Now(), st
				}
				payload, _ := encodeMsg(g, order, send.Masks[h], updated, gatherBcast, sc, &st)
				hdr, payload := g.maybeCompress(f.ID, payload, sc, &st)
				if tr {
					rec.Emit(trace.Event{Phase: trace.PhaseEncode, Start: t0, Dur: rec.Now() - t0,
						Peer: int32(h), Field: f.ID, Lane: lane, Mode: modeDelta(&st, &st0),
						Value: st.ValueBytes - st0.ValueBytes, Meta: st.MetadataBytes - st0.MetadataBytes,
						GID:  st.GIDBytes - st0.GIDBytes,
						Comp: compDelta(&st, &st0), Saved: st.CompressionSaved - st0.CompressionSaved})
					t0 = rec.Now()
				}
				if err := sendMsg(g, h, tag, hdr, payload); err != nil {
					return fmt.Errorf("gluon: broadcast %s to host %d: %w", f.Name, h, err)
				}
				if tr {
					rec.Emit(trace.Event{Phase: trace.PhaseSend, Start: t0, Dur: rec.Now() - t0,
						Peer: int32(h), Field: f.ID, Lane: lane})
				}
			}
			return nil
		})
	}()

	defer trace.LabelPhase(trace.PhaseApply)()
	for len(recvPeers) > 0 {
		var t0 int64
		if tr {
			t0 = rec.Now()
		}
		rec.SetLivePhase(trace.PhaseRecvWait)
		h, payload, err := g.T.RecvAny(tag, recvPeers)
		rec.SetLivePhase(trace.PhaseApply)
		if err != nil {
			return fmt.Errorf("gluon: broadcast %s from host %d: %w", f.Name, h, err)
		}
		if tr {
			rec.Emit(trace.Event{Phase: trace.PhaseRecvWait, Start: t0, Dur: rec.Now() - t0,
				Peer: int32(h), Field: f.ID, Value: uint64(len(payload))})
			t0 = rec.Now()
		}
		recvPeers = removePeer(recvPeers, h)
		err = decodeMsg(g, payload, recv.Lists[h], func(lid uint32, v V) {
			f.Broadcast.Set(lid, v)
			// Delivery activates the mirror even when the value is
			// unchanged: the mirror that originated this round's best value
			// has the value already, but its outgoing edges have not been
			// processed with it yet (matters for unconstrained vertex cuts,
			// where a mirror can have both incoming and outgoing edges).
			if updated != nil {
				updated.Set(lid)
			}
		})
		comm.PutBuf(payload)
		if err != nil {
			g.dumpInvariant(h, err)
			return fmt.Errorf("gluon: broadcast %s from host %d: %w", f.Name, h, err)
		}
		if tr {
			rec.Emit(trace.Event{Phase: trace.PhaseApply, Start: t0, Dur: rec.Now() - t0,
				Peer: int32(h), Field: f.ID})
		}
	}
	err := <-sendErr
	putPeerScratch(ps)
	return err
}

// releaseStages returns parked out-of-order receive buffers to the pool.
// The receive loop's error paths deliberately do not pool the scratch
// itself (the send goroutine may still hold its lists), but the staged
// wire bytes are owned solely by the loop and would otherwise leak.
func releaseStages(stages [][]byte) {
	for i, b := range stages {
		if b != nil {
			comm.PutBuf(b)
			stages[i] = nil
		}
	}
}

// peerLists fills the scratch with the peers this sync sends to and
// receives from, skipping self and empty orders.
func (ps *peerScratch) peerLists(hosts, me int, send, recv partition.Orders) (sendPeers, recvPeers []int) {
	sendPeers, recvPeers = ps.send[:0], ps.recv[:0]
	for h := 0; h < hosts; h++ {
		if h == me {
			continue
		}
		if len(send.Lists[h]) > 0 {
			sendPeers = append(sendPeers, h)
		}
		if len(recv.Lists[h]) > 0 {
			recvPeers = append(recvPeers, h)
		}
	}
	ps.send, ps.recv = sendPeers, recvPeers
	return sendPeers, recvPeers
}

// removePeer deletes h from peers in place (order is irrelevant: RecvAny
// matches the set, not a sequence).
func removePeer(peers []int, h int) []int {
	for i, p := range peers {
		if p == h {
			peers[i] = peers[len(peers)-1]
			return peers[:len(peers)-1]
		}
	}
	return peers
}

// BroadcastAll pushes masters' canonical values to every mirror regardless
// of structural pattern or update tracking: a full reconciliation, used to
// finalize results before output or verification.
func BroadcastAll[V Value](g *Gluon, f Field[V]) error {
	full := Field[V]{ID: f.ID, Name: f.Name, Write: Anywhere, Read: Anywhere, Broadcast: f.Broadcast}
	return syncBroadcast(g, full, nil, false)
}

// encodeMsg builds one field-sync message for the given memoized order,
// selecting the cheapest of the §4.2 encodings (or (GID, value) pairs when
// temporal invariance is off). Values are obtained through gather — one
// bulk call per message, matching the GPU plugin's staged transfers. The
// payload comes from the comm buffer pool and is released per the
// Transport contract once sent; index and value staging live in sc, and
// stats are accumulated into st for a race-free fold after the worker
// joins. mask, when non-nil, must be the OrderMask of order; it replaces
// the per-lid updated probes with word-level intersection.
//
// It returns the payload and the slice of local IDs whose values were
// shipped; sent aliases either sc or order and is only valid until the
// next encode on the same scratch.
func encodeMsg[V Value](g *Gluon, order []uint32, mask *bitset.OrderMask, updated *bitset.Bitset, gather func(lids []uint32, dst []V) []V, sc *encodeScratch, st *Stats) (payload []byte, sent []uint32) {
	vs := valSize[V]()
	n := len(order)

	if !g.Opt.TemporalInvariance {
		// Pre-Gluon wire format: (global-ID, value) pairs for every updated
		// proxy. No memoized ordering is assumed by the receiver.
		sent = sc.sent[:0]
		switch {
		case updated == nil:
			sent = append(sent, order...)
		case mask != nil:
			sc.positions, sent = mask.IntersectAppend(updated, sc.positions[:0], sent)
		default:
			for _, lid := range order {
				if updated.Test(lid) {
					sent = append(sent, lid)
				}
			}
		}
		sc.sent = sent
		vals := gather(sent, scratchVals[V](sc, len(sent)))
		payload = comm.GetBuf(5 + len(sent)*(8+vs))
		payload[0] = modeGIDs
		binary.LittleEndian.PutUint32(payload[1:], uint32(len(sent)))
		off := 5
		for i, lid := range sent {
			binary.LittleEndian.PutUint64(payload[off:], g.Part.GID(lid))
			putVal(payload[off+8:], vals[i])
			off += 8 + vs
		}
		st.MessagesSent++
		st.ModeCounts[modeGIDs]++
		st.MetadataBytes += 5
		st.GIDBytes += uint64(len(sent)) * 8
		st.ValueBytes += uint64(len(sent)) * uint64(vs)
		return payload, sent
	}

	// Positions (into the memoized order) carrying an update this round.
	positions := sc.positions[:0]
	switch {
	case updated == nil:
		for i := 0; i < n; i++ {
			positions = append(positions, uint32(i))
		}
		sent = order
	case mask != nil:
		positions, sent = mask.IntersectAppend(updated, positions, sc.sent[:0])
		sc.sent = sent
	default:
		sent = sc.sent[:0]
		for i, lid := range order {
			if updated.Test(lid) {
				positions = append(positions, uint32(i))
				sent = append(sent, lid)
			}
		}
		sc.sent = sent
	}
	sc.positions = positions
	k := len(positions)

	// Size each §4.2 encoding and pick the smallest.
	if k == 0 {
		st.MessagesSent++
		st.ModeCounts[modeEmpty]++
		st.MetadataBytes++
		payload = comm.GetBuf(1)
		payload[0] = modeEmpty
		return payload, nil
	}
	bvWords := (n + 63) / 64
	denseSize := 1 + n*vs
	bitvecSize := 1 + 4 + bvWords*8 + k*vs
	idxSize := 1 + 4 + k*4 + k*vs
	// A forced encoding disqualifies the others (ablation mode).
	switch g.Opt.ForceEncoding {
	case EncodingDense:
		bitvecSize, idxSize = 1<<30, 1<<30
	case EncodingBitvec:
		denseSize, idxSize = 1<<30, 1<<30
	case EncodingIndices:
		denseSize, bitvecSize = 1<<30, 1<<30
	}

	switch {
	case denseSize <= bitvecSize && denseSize <= idxSize:
		// Dense messages ship every proxy in the order.
		sent = order
		vals := gather(order, scratchVals[V](sc, n))
		payload = comm.GetBuf(denseSize)
		payload[0] = modeDense
		off := 1
		for _, v := range vals {
			putVal(payload[off:], v)
			off += vs
		}
		st.ModeCounts[modeDense]++
		st.MetadataBytes++
		st.ValueBytes += uint64(n) * uint64(vs)
	case bitvecSize <= idxSize:
		vals := gather(sent, scratchVals[V](sc, k))
		payload = comm.GetBuf(bitvecSize)
		payload[0] = modeBitvec
		binary.LittleEndian.PutUint32(payload[1:], uint32(k))
		// Write the bit-vector straight into the payload: bit p of the
		// little-endian word stream is byte p/8, bit p%8.
		bv := payload[5 : 5+bvWords*8]
		for i := range bv {
			bv[i] = 0
		}
		for _, pos := range positions {
			bv[pos>>3] |= 1 << (pos & 7)
		}
		off := 5 + bvWords*8
		for _, v := range vals {
			putVal(payload[off:], v)
			off += vs
		}
		st.ModeCounts[modeBitvec]++
		st.MetadataBytes += uint64(5 + bvWords*8)
		st.ValueBytes += uint64(k) * uint64(vs)
	default:
		vals := gather(sent, scratchVals[V](sc, k))
		payload = comm.GetBuf(idxSize)
		payload[0] = modeIndices
		binary.LittleEndian.PutUint32(payload[1:], uint32(k))
		off := 5
		for _, pos := range positions {
			binary.LittleEndian.PutUint32(payload[off:], pos)
			off += 4
		}
		for _, v := range vals {
			putVal(payload[off:], v)
			off += vs
		}
		st.ModeCounts[modeIndices]++
		st.MetadataBytes += uint64(5 + k*4)
		st.ValueBytes += uint64(k) * uint64(vs)
	}
	st.MessagesSent++
	return payload, sent
}

// decodeMsg applies one received field-sync message: apply is called with
// the local ID (resolved through the memoized order, or through global-ID
// translation for modeGIDs messages) and the value. The input payload is
// not consumed — its owner releases it — but any decompression buffer
// decodeMsg creates is pooled internally.
func decodeMsg[V Value](g *Gluon, payload []byte, order []uint32, apply func(lid uint32, v V)) error {
	body, pooled, err := maybeDecompress(payload)
	if err != nil {
		return err
	}
	err = decodeBody(g, body, order, apply)
	if pooled {
		comm.PutBuf(body)
	}
	return err
}

func decodeBody[V Value](g *Gluon, payload []byte, order []uint32, apply func(lid uint32, v V)) error {
	if len(payload) == 0 {
		return fmt.Errorf("empty payload")
	}
	vs := valSize[V]()
	mode := payload[0]
	body := payload[1:]
	switch mode {
	case modeEmpty:
		return nil
	case modeDense:
		if len(body) != len(order)*vs {
			return fmt.Errorf("dense message: %d bytes for %d proxies of size %d", len(body), len(order), vs)
		}
		off := 0
		for _, lid := range order {
			apply(lid, getVal[V](body[off:]))
			off += vs
		}
	case modeBitvec:
		if len(body) < 4 {
			return fmt.Errorf("short bitvec message")
		}
		k := binary.LittleEndian.Uint32(body)
		n := len(order)
		bvWords := (n + 63) / 64
		if len(body) != 4+bvWords*8+int(k)*vs {
			return fmt.Errorf("bitvec message: %d bytes, want %d", len(body), 4+bvWords*8+int(k)*vs)
		}
		valOff := 4 + bvWords*8
		applied := uint32(0)
		for wi := 0; wi < bvWords; wi++ {
			w := binary.LittleEndian.Uint64(body[4+wi*8:])
			base := wi * wordBits
			for w != 0 {
				pos := base + bits.TrailingZeros64(w)
				if applied >= k {
					return fmt.Errorf("bitvec message: more set bits than count %d", k)
				}
				if pos >= n {
					return fmt.Errorf("bitvec message: position %d out of %d", pos, n)
				}
				apply(order[pos], getVal[V](body[valOff:]))
				valOff += vs
				applied++
				w &= w - 1
			}
		}
		if applied != k {
			return fmt.Errorf("bitvec message: %d set bits, count says %d", applied, k)
		}
	case modeIndices:
		if len(body) < 4 {
			return fmt.Errorf("short indices message")
		}
		k := int(binary.LittleEndian.Uint32(body))
		if len(body) != 4+k*4+k*vs {
			return fmt.Errorf("indices message: %d bytes, want %d", len(body), 4+k*4+k*vs)
		}
		idxOff, valOff := 4, 4+k*4
		for i := 0; i < k; i++ {
			pos := binary.LittleEndian.Uint32(body[idxOff:])
			if int(pos) >= len(order) {
				return fmt.Errorf("indices message: position %d out of %d", pos, len(order))
			}
			apply(order[pos], getVal[V](body[valOff:]))
			idxOff += 4
			valOff += vs
		}
	case modeGIDs:
		if len(body) < 4 {
			return fmt.Errorf("short gid-pairs message")
		}
		k := int(binary.LittleEndian.Uint32(body))
		if len(body) != 4+k*(8+vs) {
			return fmt.Errorf("gid-pairs message: %d bytes, want %d", len(body), 4+k*(8+vs))
		}
		off := 4
		for i := 0; i < k; i++ {
			gid := binary.LittleEndian.Uint64(body[off:])
			v := getVal[V](body[off+8:])
			off += 8 + vs
			lid, ok := g.Part.LID(gid)
			if !ok {
				return fmt.Errorf("gid-pairs message: gid %d has no local proxy", gid)
			}
			apply(lid, v)
		}
	default:
		return fmt.Errorf("unknown message mode %d", mode)
	}
	return nil
}

// wordBits mirrors the bitset word width for inline bit-vector decoding.
const wordBits = 64
