package partition

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"gluon/internal/bitset"
	"gluon/internal/graph"
)

// Partition is one host's view of the partitioned graph: invariant (b) of
// the paper holds — every local edge connects proxies on this host — so a
// shared-memory engine can run on Graph oblivious of other hosts.
type Partition struct {
	HostID   int
	NumHosts int
	Policy   Policy

	// Graph is the local out-CSR over local IDs. Local IDs number masters
	// first ([0, NumMasters)) then mirrors, each group strictly ascending by
	// global ID; the memoization orders (§4.1) rely on this layout.
	Graph *graph.CSR
	// GIDs maps local ID → global ID.
	GIDs []uint64
	// NumMasters is the count of master proxies; lid < NumMasters ⇔ master.
	NumMasters uint32

	// HasOut / HasIn are the structural flags of §3.2: whether the proxy has
	// any outgoing/incoming local edges. Gluon derives the reduce/broadcast
	// mirror subsets from these.
	HasOut *bitset.Bitset
	HasIn  *bitset.Bitset

	// GlobalNodes is the node count of the original graph.
	GlobalNodes uint64

	lidMap map[uint64]uint32

	// Partition-invariant state derived on first use (InGraph,
	// MirrorOrders) and shared read-only by every job on this partition.
	inGraphOnce      sync.Once
	inGraph          *graph.CSR
	mirrorOrdersOnce sync.Once
	mirrorOrders     *MirrorOrders
}

// LID translates a global ID to this host's local ID.
func (p *Partition) LID(gid uint64) (uint32, bool) {
	lid, ok := p.lidMap[gid]
	return lid, ok
}

// GID translates a local ID to the global ID.
func (p *Partition) GID(lid uint32) uint64 { return p.GIDs[lid] }

// IsMaster reports whether lid is a master proxy.
func (p *Partition) IsMaster(lid uint32) bool { return lid < p.NumMasters }

// NumProxies returns the number of proxies (masters + mirrors) on this host.
func (p *Partition) NumProxies() uint32 { return uint32(len(p.GIDs)) }

// InGraph returns the transpose of the local graph, built on first use.
// Pull-style operators iterate over it.
func (p *Partition) InGraph() *graph.CSR {
	p.inGraphOnce.Do(func() { p.inGraph = p.Graph.Transpose() })
	return p.inGraph
}

// Orders is a per-host family of local-ID orders, as the §4.1
// memoization exchange fixes them: Lists[h] is the order shared with host
// h, and Masks[h], when non-nil, its bitset.OrderMask, so the sync hot path
// can intersect an order against an updated bitset a word at a time.
type Orders struct {
	Lists [][]uint32
	Masks []*bitset.OrderMask
}

// NewOrders wraps per-host order lists, building a mask for every
// non-empty list. A list that is not strictly lid-ascending gets a nil mask
// and its users fall back to per-lid scans.
func NewOrders(lists [][]uint32) Orders {
	masks := make([]*bitset.OrderMask, len(lists))
	for h, l := range lists {
		if len(l) > 0 {
			masks[h] = bitset.NewOrderMask(l)
		}
	}
	return Orders{Lists: lists, Masks: masks}
}

// MirrorOrders is the mirror side of the §4.1 memoization: All.Lists[h]
// holds the local IDs of this host's mirrors whose master is on host h, in
// agreed (GID-ascending) order, and In/Out the subsets with local in-/out-
// edges (HasIn/HasOut, §3.2). The list for this host itself is empty.
type MirrorOrders struct {
	All, In, Out Orders
}

// MirrorOrders returns the mirror-side memoization orders, built on first
// use and read-only afterwards, so concurrent jobs on one partition share
// them. Mirrors occupy local IDs [NumMasters, NumProxies) in GID order, so
// one walk grouping them by owner yields every list already in agreed
// order.
func (p *Partition) MirrorOrders() *MirrorOrders {
	p.mirrorOrdersOnce.Do(func() {
		all := make([][]uint32, p.NumHosts)
		in := make([][]uint32, p.NumHosts)
		out := make([][]uint32, p.NumHosts)
		for lid := p.NumMasters; lid < p.NumProxies(); lid++ {
			h := p.Policy.Owner(p.GIDs[lid])
			if h == p.HostID {
				continue
			}
			all[h] = append(all[h], lid)
			if p.HasIn.Test(lid) {
				in[h] = append(in[h], lid)
			}
			if p.HasOut.Test(lid) {
				out[h] = append(out[h], lid)
			}
		}
		p.mirrorOrders = &MirrorOrders{All: NewOrders(all), In: NewOrders(in), Out: NewOrders(out)}
	})
	return p.mirrorOrders
}

// Stats summarizes a set of partitions.
type Stats struct {
	Policy            string
	NumHosts          int
	GlobalNodes       uint64
	GlobalEdges       uint64
	TotalProxies      uint64
	ReplicationFactor float64 // average proxies per node
	MaxEdgeLoad       uint64  // max edges on any host
	MinEdgeLoad       uint64
	EdgeImbalance     float64 // max/mean
	TotalMirrors      uint64
}

// ComputeStats aggregates partition statistics across hosts.
func ComputeStats(parts []*Partition) Stats {
	if len(parts) == 0 {
		return Stats{}
	}
	s := Stats{
		Policy:      parts[0].Policy.Name(),
		NumHosts:    len(parts),
		GlobalNodes: parts[0].GlobalNodes,
		MinEdgeLoad: ^uint64(0),
	}
	for _, p := range parts {
		e := p.Graph.NumEdges()
		s.GlobalEdges += e
		s.TotalProxies += uint64(p.NumProxies())
		s.TotalMirrors += uint64(p.NumProxies() - p.NumMasters)
		if e > s.MaxEdgeLoad {
			s.MaxEdgeLoad = e
		}
		if e < s.MinEdgeLoad {
			s.MinEdgeLoad = e
		}
	}
	if s.GlobalNodes > 0 {
		s.ReplicationFactor = float64(s.TotalProxies) / float64(s.GlobalNodes)
	}
	if mean := float64(s.GlobalEdges) / float64(len(parts)); mean > 0 {
		s.EdgeImbalance = float64(s.MaxEdgeLoad) / mean
	}
	return s
}

// PartitionAll partitions the edge list for every host of the policy and
// builds all local partitions. numNodes is the global node count (IDs in
// [0, numNodes)). Every node gets a master proxy on its owner host even if
// no edge assigned there mentions it, so isolated nodes and remote-only
// nodes still have a canonical location.
func PartitionAll(numNodes uint64, edges []graph.Edge, pol Policy) ([]*Partition, error) {
	hosts := pol.NumHosts()
	buckets, err := bucketEdges(edges, pol)
	if err != nil {
		return nil, err
	}
	// Decide weightedness globally so every host builds the same schema.
	weighted := hasAnyWeight(edges)
	parts := make([]*Partition, hosts)
	var wg sync.WaitGroup
	errs := make([]error, hosts)
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			parts[h], errs[h] = buildLocal(h, numNodes, buckets[h], pol, weighted)
		}(h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// bucketEdges routes every edge to its assigned host's bucket, in parallel
// over edge chunks with per-worker sub-buckets merged at the end.
func bucketEdges(edges []graph.Edge, pol Policy) ([][]graph.Edge, error) {
	hosts := pol.NumHosts()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(edges)/1024+1 {
		workers = len(edges)/1024 + 1
	}
	sub := make([][][]graph.Edge, workers)
	var wg sync.WaitGroup
	chunk := (len(edges) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(edges) {
			break
		}
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			mine := make([][]graph.Edge, hosts)
			for _, e := range edges[lo:hi] {
				h := pol.EdgeHost(e.Src, e.Dst)
				mine[h] = append(mine[h], e)
			}
			sub[w] = mine
		}(w, lo, hi)
	}
	wg.Wait()
	buckets := make([][]graph.Edge, hosts)
	for h := 0; h < hosts; h++ {
		var total int
		for w := range sub {
			if sub[w] != nil {
				total += len(sub[w][h])
			}
		}
		buckets[h] = make([]graph.Edge, 0, total)
		for w := range sub {
			if sub[w] != nil {
				buckets[h] = append(buckets[h], sub[w][h]...)
			}
		}
	}
	return buckets, nil
}

// buildLocal constructs host h's Partition from the edges assigned to it.
func buildLocal(h int, numNodes uint64, edges []graph.Edge, pol Policy, weighted bool) (*Partition, error) {
	// Masters: every node this host owns. With chunked owners this is a
	// contiguous global-ID range, but we only rely on Owner().
	var masters []uint64
	lo, hi := ownedRange(numNodes, pol, h)
	for g := lo; g < hi; g++ {
		if pol.Owner(g) == h {
			masters = append(masters, g)
		}
	}
	// Mirrors: endpoints of local edges owned elsewhere.
	mirrorSet := make(map[uint64]struct{})
	for _, e := range edges {
		if pol.Owner(e.Src) != h {
			mirrorSet[e.Src] = struct{}{}
		}
		if pol.Owner(e.Dst) != h {
			mirrorSet[e.Dst] = struct{}{}
		}
	}
	mirrors := make([]uint64, 0, len(mirrorSet))
	for g := range mirrorSet {
		mirrors = append(mirrors, g)
	}
	sort.Slice(mirrors, func(a, b int) bool { return mirrors[a] < mirrors[b] })

	numProxies := uint64(len(masters) + len(mirrors))
	if numProxies > 1<<32-1 {
		return nil, fmt.Errorf("partition: host %d has %d proxies, exceeding 32-bit local IDs", h, numProxies)
	}
	gids := make([]uint64, 0, numProxies)
	gids = append(gids, masters...)
	gids = append(gids, mirrors...)
	lidMap := make(map[uint64]uint32, len(gids))
	for lid, g := range gids {
		lidMap[g] = uint32(lid)
	}

	local := make([]graph.LocalEdge, len(edges))
	hasOut := bitset.New(uint32(numProxies))
	hasIn := bitset.New(uint32(numProxies))
	for i, e := range edges {
		s, ok := lidMap[e.Src]
		if !ok {
			return nil, fmt.Errorf("partition: host %d: no proxy for source %d", h, e.Src)
		}
		d, ok := lidMap[e.Dst]
		if !ok {
			return nil, fmt.Errorf("partition: host %d: no proxy for destination %d", h, e.Dst)
		}
		local[i] = graph.LocalEdge{Src: s, Dst: d, Weight: e.Weight}
		hasOut.SetUnsync(s)
		hasIn.SetUnsync(d)
	}
	g := graph.Build(uint32(numProxies), local, weighted)

	return &Partition{
		HostID:      h,
		NumHosts:    pol.NumHosts(),
		Policy:      pol,
		Graph:       g,
		GIDs:        gids,
		NumMasters:  uint32(len(masters)),
		HasOut:      hasOut,
		HasIn:       hasIn,
		GlobalNodes: numNodes,
		lidMap:      lidMap,
	}, nil
}

// ownedRange returns a conservative [lo, hi) global-ID range containing all
// nodes host h owns. Block owners make this a tight range; the fallback is
// the full ID space.
func ownedRange(numNodes uint64, pol Policy, h int) (uint64, uint64) {
	if b, ok := Bounds(pol); ok {
		return b[h], b[h+1]
	}
	return 0, numNodes
}

type boundsProvider interface{ ownerBounds() []uint64 }

func (b *base) ownerBounds() []uint64 { return b.own.bounds }

// Bounds extracts the chunk boundaries of a chunk-based policy's node
// owner map (bounds[h]..bounds[h+1] is host h's owned ID range). The
// second result is false for policies without chunked owners.
func Bounds(pol Policy) ([]uint64, bool) {
	if bp, ok := pol.(boundsProvider); ok {
		return bp.ownerBounds(), true
	}
	if fp, ok := pol.(*frozenPolicy); ok {
		return fp.own.bounds, true
	}
	return nil, false
}

// frozenPolicy is a policy reconstructed from serialized chunk bounds: it
// answers Owner queries (all a loaded partition needs) but cannot assign
// new edges.
type frozenPolicy struct {
	name  string
	hosts int
	own   blockOwner
}

func (p *frozenPolicy) Name() string         { return p.name }
func (p *frozenPolicy) NumHosts() int        { return p.hosts }
func (p *frozenPolicy) Owner(gid uint64) int { return p.own.owner(gid) }

// EdgeHost panics: frozen policies describe an existing partitioning; use
// NewPolicy to partition fresh edges.
func (p *frozenPolicy) EdgeHost(src, dst uint64) int {
	panic("partition: frozen policy cannot assign edges; re-create with NewPolicy")
}

// Frozen reconstructs a Policy from a serialized name and chunk bounds.
func Frozen(name string, bounds []uint64) (Policy, error) {
	if len(bounds) < 2 {
		return nil, fmt.Errorf("partition: frozen policy needs at least 2 bounds, got %d", len(bounds))
	}
	return &frozenPolicy{name: name, hosts: len(bounds) - 1, own: blockOwner{bounds: bounds}}, nil
}

// Reassemble rebuilds a Partition from its serialized parts, recomputing
// the global→local map and the structural flags from the local graph. It
// rejects a layout whose masters or mirrors are not each strictly
// GID-ascending.
func Reassemble(hostID int, pol Policy, g *graph.CSR, gids []uint64, numMasters uint32, globalNodes uint64) (*Partition, error) {
	if uint32(len(gids)) != g.NumNodes() {
		return nil, fmt.Errorf("partition: %d GIDs for %d local nodes", len(gids), g.NumNodes())
	}
	if numMasters > uint32(len(gids)) {
		return nil, fmt.Errorf("partition: %d masters among %d proxies", numMasters, len(gids))
	}
	for lid := 1; lid < len(gids); lid++ {
		if lid != int(numMasters) && gids[lid] <= gids[lid-1] {
			return nil, fmt.Errorf("partition: GID %d at local ID %d does not ascend past %d (masters and mirrors must each be strictly GID-ascending)",
				gids[lid], lid, gids[lid-1])
		}
	}
	lidMap := make(map[uint64]uint32, len(gids))
	for lid, gid := range gids {
		if _, dup := lidMap[gid]; dup {
			return nil, fmt.Errorf("partition: duplicate GID %d", gid)
		}
		lidMap[gid] = uint32(lid)
	}
	n := uint32(len(gids))
	hasOut := bitset.New(n)
	hasIn := bitset.New(n)
	for u := uint32(0); u < n; u++ {
		if g.OutDegree(u) > 0 {
			hasOut.SetUnsync(u)
		}
	}
	for _, d := range g.Dst {
		hasIn.SetUnsync(d)
	}
	return &Partition{
		HostID:      hostID,
		NumHosts:    pol.NumHosts(),
		Policy:      pol,
		Graph:       g,
		GIDs:        gids,
		NumMasters:  numMasters,
		HasOut:      hasOut,
		HasIn:       hasIn,
		GlobalNodes: globalNodes,
		lidMap:      lidMap,
	}, nil
}

func hasAnyWeight(edges []graph.Edge) bool {
	for _, e := range edges {
		if e.Weight != 0 {
			return true
		}
	}
	return false
}
