package gluon_test

// BenchmarkSyncHotPath measures the full field-sync hot path end to end:
// per-peer encode, transport, any-order receive, decode, apply — the loop
// the engines drive every round. It runs one Sync per iteration across all
// hosts of an in-process hub, per encoding mode and host count, with
// b.ReportAllocs() so the steady-state allocation behaviour of the sync
// pipeline is tracked release to release (`make sync-bench` records the
// same measurement in BENCH_history.jsonl).

import (
	"fmt"
	"sync"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/fields"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/partition"
	"gluon/internal/trace"
)

// hotPathCluster is one benchmark cluster: per-host substrates, labels, and
// update bitsets over a CVC partitioning of a deterministic rmat graph.
type hotPathCluster struct {
	parts  []*partition.Partition
	gs     []*gluon.Gluon
	labels [][]uint32
	upds   []*bitset.Bitset
	close  func()
}

func newHotPathCluster(tb testing.TB, hosts int, opt gluon.Options) *hotPathCluster {
	tb.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: 12, EdgeFactor: 8, Seed: 7}
	edges, err := generate.Edges(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	numNodes := cfg.NumNodes()
	outDeg := make([]uint32, numNodes)
	inDeg := make([]uint32, numNodes)
	for _, e := range edges {
		outDeg[e.Src]++
		inDeg[e.Dst]++
	}
	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts,
		partition.Options{OutDegrees: outDeg, InDegrees: inDeg})
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		tb.Fatal(err)
	}
	hub := comm.NewHub(hosts)
	c := &hotPathCluster{parts: parts, close: hub.Close}
	c.gs = make([]*gluon.Gluon, hosts)
	c.labels = make([][]uint32, hosts)
	c.upds = make([]*bitset.Bitset, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			g, err := gluon.New(parts[h], hub.Endpoint(h), opt)
			if err != nil {
				panic(err)
			}
			c.gs[h] = g
		}(h)
	}
	wg.Wait()
	for h := 0; h < hosts; h++ {
		c.labels[h] = make([]uint32, parts[h].NumProxies())
		for i := range c.labels[h] {
			c.labels[h][i] = fields.InfinityU32
		}
		c.upds[h] = bitset.New(parts[h].NumProxies())
	}
	return c
}

// markUpdates sets a deterministic subset of each host's proxies updated
// (every stride-th proxy) and gives them fresh label values, emulating one
// round's frontier.
func (c *hotPathCluster) markUpdates(round int, stride uint32) {
	for h := range c.gs {
		c.upds[h].Reset()
		n := c.parts[h].NumProxies()
		for i := uint32(0); i < n; i += stride {
			c.upds[h].SetUnsync(i)
			c.labels[h][i] = uint32(round)
		}
	}
}

// syncAll runs one collective Sync on every host concurrently.
func (c *hotPathCluster) syncAll(tb testing.TB, fieldID uint32) {
	var wg sync.WaitGroup
	for h := range c.gs {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			f := gluon.Field[uint32]{
				ID:        fieldID,
				Name:      "hotpath",
				Write:     gluon.AtDestination,
				Read:      gluon.AtSource,
				Reduce:    fields.MinU32{Labels: c.labels[h]},
				Broadcast: fields.SetU32{Labels: c.labels[h]},
			}
			if err := gluon.Sync(c.gs[h], f, c.upds[h]); err != nil {
				tb.Errorf("host %d: %v", h, err)
			}
		}(h)
	}
	wg.Wait()
}

func BenchmarkSyncHotPath(b *testing.B) {
	encodings := []struct {
		name string
		enc  gluon.Encoding
	}{
		{"auto", gluon.EncodingAuto},
		{"dense", gluon.EncodingDense},
		{"bitvec", gluon.EncodingBitvec},
		{"indices", gluon.EncodingIndices},
	}
	for _, hosts := range []int{2, 8} {
		for _, e := range encodings {
			b.Run(fmt.Sprintf("hosts=%d/%s", hosts, e.name), func(b *testing.B) {
				opt := gluon.Opt()
				opt.ForceEncoding = e.enc
				c := newHotPathCluster(b, hosts, opt)
				defer c.close()
				// Warm one round so memoization and pools are primed.
				c.markUpdates(0, 5)
				c.syncAll(b, 90)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.markUpdates(i+1, 5)
					c.syncAll(b, 90)
				}
			})
		}
	}
}

// BenchmarkSyncHotPathTrace measures the tracing tax on the same hot path
// in its three states: off (no recorder attached — the default, must match
// BenchmarkSyncHotPath), disabled (recorders attached but the trace gated
// off — the cost of the atomic enabled check), and on (full span emission).
// The first two back the ≤5% overhead budget in DESIGN.md §4.3; `make
// check` enforces it via gluon-bench -sync-guard.
func BenchmarkSyncHotPathTrace(b *testing.B) {
	for _, hosts := range []int{2, 8} {
		for _, mode := range []string{"off", "disabled", "on"} {
			b.Run(fmt.Sprintf("hosts=%d/%s", hosts, mode), func(b *testing.B) {
				c := newHotPathCluster(b, hosts, gluon.Opt())
				defer c.close()
				if mode != "off" {
					tr := trace.New(trace.Config{Label: "bench"})
					tr.SetEnabled(mode == "on")
					for h, g := range c.gs {
						g.SetRecorder(tr.Recorder(h))
					}
				}
				c.markUpdates(0, 5)
				c.syncAll(b, 92)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.markUpdates(i+1, 5)
					c.syncAll(b, 92)
				}
			})
		}
	}
}

// BenchmarkSyncHotPathUnopt tracks the pre-Gluon (GID, value) wire format
// path, which the paper's UNOPT configuration exercises.
func BenchmarkSyncHotPathUnopt(b *testing.B) {
	for _, hosts := range []int{2, 8} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			c := newHotPathCluster(b, hosts, gluon.Unopt())
			defer c.close()
			c.markUpdates(0, 5)
			c.syncAll(b, 91)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.markUpdates(i+1, 5)
				c.syncAll(b, 91)
			}
		})
	}
}
