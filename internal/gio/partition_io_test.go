package gio_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gio"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

func buildParts(t *testing.T, kind partition.Kind, hosts int) (uint64, []graph.Edge, *graph.CSR, []*partition.Partition) {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 14}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, cfg.NumNodes())
	for u := uint32(0); u < g.NumNodes(); u++ {
		out[u] = g.OutDegree(u)
	}
	pol, err := partition.NewPolicy(kind, cfg.NumNodes(), hosts,
		partition.Options{OutDegrees: out, InDegrees: g.InDegrees()})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(cfg.NumNodes(), edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.NumNodes(), edges, g, parts
}

// TestPartitionRoundTrip: serialized partitions reload with identical
// structure.
func TestPartitionRoundTrip(t *testing.T) {
	_, _, _, parts := buildParts(t, partition.CVC, 4)
	for _, p := range parts {
		var buf bytes.Buffer
		if err := gio.WritePartition(&buf, p); err != nil {
			t.Fatal(err)
		}
		got, err := gio.ReadPartition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.HostID != p.HostID || got.NumHosts != p.NumHosts ||
			got.NumMasters != p.NumMasters || got.GlobalNodes != p.GlobalNodes {
			t.Fatalf("header mismatch: %+v vs %+v", got, p)
		}
		if got.Policy.Name() != p.Policy.Name() {
			t.Fatalf("policy %s vs %s", got.Policy.Name(), p.Policy.Name())
		}
		if got.Graph.NumEdges() != p.Graph.NumEdges() {
			t.Fatalf("edges %d vs %d", got.Graph.NumEdges(), p.Graph.NumEdges())
		}
		for lid := uint32(0); lid < p.NumProxies(); lid++ {
			if got.GID(lid) != p.GID(lid) {
				t.Fatalf("gid[%d] differs", lid)
			}
			if got.HasIn.Test(lid) != p.HasIn.Test(lid) || got.HasOut.Test(lid) != p.HasOut.Test(lid) {
				t.Fatalf("structural flags differ at %d", lid)
			}
		}
		// Owner queries must survive through the frozen policy.
		for lid := uint32(0); lid < p.NumProxies(); lid++ {
			if got.Policy.Owner(got.GID(lid)) != p.Policy.Owner(p.GID(lid)) {
				t.Fatalf("owner of %d differs", p.GID(lid))
			}
		}
	}
}

// TestLoadedPartitionsRun: a full distributed bfs over reloaded partitions
// produces correct results — the offline-partitioning workflow end to end.
func TestLoadedPartitionsRun(t *testing.T) {
	numNodes, _, g, parts := buildParts(t, partition.CVC, 4)
	_ = numNodes
	reloaded := make([]*partition.Partition, len(parts))
	for i, p := range parts {
		var buf bytes.Buffer
		if err := gio.WritePartition(&buf, p); err != nil {
			t.Fatal(err)
		}
		rp, err := gio.ReadPartition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		reloaded[i] = rp
	}
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)
	res, err := dsys.RunPartitioned(reloaded, dsys.RunConfig{
		Hosts: 4, Policy: partition.CVC, Opt: gluon.Opt(), CollectValues: true,
	}, bfs.NewGalois(uint64(source), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if float64(w) != res.Values[i] {
			t.Fatalf("node %d: got %v, want %d", i, res.Values[i], w)
		}
	}
}

func TestReadPartitionRejectsGarbage(t *testing.T) {
	if _, err := gio.ReadPartition(bytes.NewReader([]byte("junkjunkjunkjunkjunkjunk"))); err == nil {
		t.Fatal("garbage accepted")
	}
	_, _, _, parts := buildParts(t, partition.CVC, 2)
	var buf bytes.Buffer
	if err := gio.WritePartition(&buf, parts[0]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := gio.ReadPartition(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated partition accepted")
	}
}

// refMirrorOrders derives the mirror-side memoization orders from scratch:
// group the mirror GIDs by owner, sort each group, and translate every GID
// back to its local ID — the per-job derivation the cached
// Partition.MirrorOrders replaced.
func refMirrorOrders(t *testing.T, p *partition.Partition) (all, in, out [][]uint32) {
	t.Helper()
	byOwner := make([][]uint64, p.NumHosts)
	for lid := p.NumMasters; lid < p.NumProxies(); lid++ {
		gid := p.GID(lid)
		h := p.Policy.Owner(gid)
		byOwner[h] = append(byOwner[h], gid)
	}
	all = make([][]uint32, p.NumHosts)
	in = make([][]uint32, p.NumHosts)
	out = make([][]uint32, p.NumHosts)
	for h, gids := range byOwner {
		if h == p.HostID {
			continue
		}
		sort.Slice(gids, func(a, b int) bool { return gids[a] < gids[b] })
		for _, gid := range gids {
			lid, ok := p.LID(gid)
			if !ok {
				t.Fatalf("mirror gid %d has no local ID", gid)
			}
			all[h] = append(all[h], lid)
			if p.HasIn.Test(lid) {
				in[h] = append(in[h], lid)
			}
			if p.HasOut.Test(lid) {
				out[h] = append(out[h], lid)
			}
		}
	}
	return all, in, out
}

// TestMirrorOrdersMatchReference: the cached mirror-side orders equal the
// from-scratch derivation for every policy and host count, on fresh and on
// reloaded partitions, and every non-empty order carries its mask.
func TestMirrorOrdersMatchReference(t *testing.T) {
	for _, kind := range partition.AllKinds() {
		for _, hosts := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/h%d", kind, hosts), func(t *testing.T) {
				_, _, _, parts := buildParts(t, kind, hosts)
				for _, p := range parts {
					var buf bytes.Buffer
					if err := gio.WritePartition(&buf, p); err != nil {
						t.Fatal(err)
					}
					rp, err := gio.ReadPartition(&buf)
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range []*partition.Partition{p, rp} {
						all, in, out := refMirrorOrders(t, q)
						mo := q.MirrorOrders()
						for _, c := range []struct {
							name string
							got  partition.Orders
							want [][]uint32
						}{{"all", mo.All, all}, {"in", mo.In, in}, {"out", mo.Out, out}} {
							if !reflect.DeepEqual(c.got.Lists, c.want) {
								t.Fatalf("host %d: %s orders differ from the reference", q.HostID, c.name)
							}
							for h, l := range c.got.Lists {
								if (c.got.Masks[h] != nil) != (len(l) > 0) {
									t.Fatalf("host %d: %s mask for peer %d does not match its list", q.HostID, c.name, h)
								}
							}
						}
					}
				}
			})
		}
	}
}
