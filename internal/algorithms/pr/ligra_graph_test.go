package pr

import (
	"testing"

	"gluon/internal/graph"
	"gluon/internal/partition"
)

// TestLigraSharesInGraph: Ligra programs built on one partition pull over
// the partition's own in-CSR rather than transposing the graph per job.
func TestLigraSharesInGraph(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}
	pol, err := partition.NewPolicy(partition.OEC, 4, 2, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(4, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	p := parts[0]
	a, err := NewLigra(0, 1)(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLigra(0, 1)(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.(*ligraProgram).lg.In != p.InGraph() || b.(*ligraProgram).lg.In != p.InGraph() {
		t.Fatal("Ligra programs do not share the partition's in-CSR")
	}
}
