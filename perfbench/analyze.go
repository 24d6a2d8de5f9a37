package main

import (
	"sort"
	"strings"
	"time"

	"gluon/internal/comm"
	"gluon/internal/dsys"
)

// firstReservedTag starts the tag range comm reserves for the runtime's
// own protocols: barrier, all-reduce, all-gather, memoization, termination.
const firstReservedTag = uint32(comm.TagBarrier) &^ 0xFFFF

// hostLayers is one host's share of one traced job, in nanoseconds.
type hostLayers struct {
	newS, init, finalize   int64
	sync, syncSelf         int64
	send, recvWait, collWt int64
	rounds                 []int64 // engine.round time per round
	frontier, updated      uint64
	sentBytes, sentMsgs    uint64
	// self maps each layer (the span-name prefix) to its self time. The
	// dsys entry includes the job time no span covers, so the values sum
	// to the job wall time.
	self map[string]int64
	// uncovered is the job time no span covers: the driver's own work.
	uncovered int64
}

type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// analyzeHost splits one host's spans of a job into layer times. A
// span's self time is its duration minus the part its children cover;
// concurrent transport calls under one parent count once toward comm.
func analyzeHost(spans []span, wall int64) hostLayers {
	hl := hostLayers{self: map[string]int64{}}
	children := make([][]interval, len(spans))
	var top, topComm []interval
	for _, s := range spans {
		iv := interval{s.Start, s.End}
		switch {
		case s.Parent >= 0:
			children[s.Parent] = append(children[s.Parent], iv)
		case layerOf(s.Name) == "comm":
			topComm = append(topComm, iv)
			top = append(top, iv)
		default:
			top = append(top, iv)
		}
	}
	for i, s := range spans {
		var self int64
		if len(children[i]) > 0 {
			kids := covered(children[i], s.Start, s.End)
			hl.self["comm"] += kids
			self = s.dur() - kids
		} else if layerOf(s.Name) != "comm" {
			self = s.dur()
		}
		if s.Parent < 0 && layerOf(s.Name) != "comm" {
			hl.self[layerOf(s.Name)] += self
		}
		switch s.Name {
		case spanNew:
			hl.newS += s.dur()
		case spanInit:
			hl.init += s.dur()
		case spanFinalize:
			hl.finalize += s.dur()
		case spanSync:
			hl.sync += s.dur()
			hl.syncSelf += self
		case spanRound:
			hl.rounds = append(hl.rounds, s.dur())
			hl.frontier += uint64(s.Frontier)
			hl.updated += uint64(s.Updated)
		case spanSend:
			hl.send += s.dur()
			hl.sentBytes += uint64(s.Bytes)
			hl.sentMsgs++
		case spanRecv:
			if s.Tag >= firstReservedTag {
				hl.collWt += s.dur()
			} else {
				hl.recvWait += s.dur()
			}
		}
	}
	hl.self["comm"] += covered(topComm, 0, wall)
	hl.uncovered = wall - covered(top, 0, wall)
	hl.self["dsys"] += hl.uncovered
	return hl
}

// jobLayers is the per-layer view of one traced job: times are the
// maximum over hosts, counts the sum over hosts.
type jobLayers struct {
	hosts []hostLayers
	vals  map[string]float64
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// analyzeJob derives the per-layer metrics of one traced job from its
// spans, its dsys.Result and the transport counters it moved.
func analyzeJob(jt *jobTrace, wall time.Duration, res *dsys.Result, wire comm.Stats) jobLayers {
	jl := jobLayers{vals: map[string]float64{}}
	v := jl.vals
	hostMax := func(name string, ns int64) { v[name] = max(v[name], secs(ns)) }
	syncTime := map[int]time.Duration{}
	for _, hr := range res.Hosts {
		syncTime[hr.Host] = hr.SyncTime
	}
	var compute []int64
	var frontier, updated uint64
	for h, ht := range jt.hosts {
		hl := analyzeHost(ht.spans, int64(wall))
		jl.hosts = append(jl.hosts, hl)
		hostMax("gluon.new_s", hl.newS)
		hostMax("gluon.sync_s", hl.sync)
		hostMax("gluon.sync_self_s", hl.syncSelf)
		hostMax("comm.send_s", hl.send)
		hostMax("comm.recv_wait_s", hl.recvWait)
		hostMax("comm.collective_wait_s", hl.collWt)
		hostMax("dsys.init_s", hl.init)
		hostMax("dsys.finalize_s", hl.finalize)
		hostMax("dsys.barrier_s", int64(syncTime[h])-hl.sync)
		hostMax("dsys.self_s", hl.uncovered)
		for r, d := range hl.rounds {
			if r == len(compute) {
				compute = append(compute, 0)
			}
			compute[r] = max(compute[r], d)
		}
		frontier += hl.frontier
		updated += hl.updated
	}
	var c int64
	for _, d := range compute {
		c += d
	}
	v["engine.compute_s"] = secs(c)
	v["engine.frontier"] = float64(frontier)
	v["engine.updated"] = float64(updated)

	var modes [5]uint64
	var msgs, valueB, metaB, memo uint64
	for _, hr := range res.Hosts {
		st := hr.Gluon
		valueB += st.ValueBytes
		metaB += st.MetadataBytes + st.GIDBytes
		memo += st.MemoProxies
		msgs += st.MessagesSent
		for i, n := range st.ModeCounts {
			modes[i] += n
		}
	}
	v["gluon.value_bytes"] = float64(valueB)
	v["gluon.meta_bytes"] = float64(metaB)
	v["gluon.memo_proxies"] = float64(memo)
	v["gluon.msgs"] = float64(msgs)
	// ModeCounts is indexed by gluon's wire mode byte: empty, dense,
	// bit-vector, index list, then global-ID pairs.
	v["gluon.msgs.empty"] = float64(modes[0])
	v["gluon.msgs.dense"] = float64(modes[1])
	v["gluon.msgs.bitvec"] = float64(modes[2])
	v["gluon.msgs.indices"] = float64(modes[3])
	v["comm.wire_msgs"] = float64(wire.MessagesSent)
	v["comm.wire_bytes"] = float64(wire.BytesSent)
	v["dsys.rounds"] = float64(res.Rounds)
	v["dsys.imbalance"] = res.LoadImbalance()
	return jl
}
