package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// selfSlack bounds |sum of layer self times - job wall time| as a share
// of the wall time. Self times partition the job by construction, so only
// spans that outlive their parent could open a gap.
const selfSlack = 0.01

// computeSlack bounds how far engine.compute_s may fall short of
// Result.MaxCompute, as a share of it: the part of dsys's Round timer the
// wrapper's span does not cover.
const computeSlack = 0.05

// computeScale is the R-MAT scale of TestComputeMatchesMaxCompute.
const computeScale = 15

// TestTracedRunsReconcile: tracing changes no answer, byte count or round
// count; the wrapper's byte count equals comm.Stats; and the layer self
// times of every host add up to the job wall time.
func TestTracedRunsReconcile(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := smallRunner(t, w.name, 3)
			for i, src := range r.sources {
				plain, traced := r.run(src), r.runTraced(i, src)
				if plain.err != nil || traced.err != nil {
					t.Fatalf("source %d: untraced error %v, traced error %v", src, plain.err, traced.err)
				}
				if err := r.check(traced, src); err != nil {
					t.Fatalf("source %d: traced answer wrong: %v", src, err)
				}
				for v := range plain.res.Values {
					if math.Float64bits(plain.res.Values[v]) != math.Float64bits(traced.res.Values[v]) {
						t.Fatalf("source %d vertex %d: traced %v, untraced %v",
							src, v, traced.res.Values[v], plain.res.Values[v])
					}
				}
				if plain.res.TotalCommBytes != traced.res.TotalCommBytes || plain.res.Rounds != traced.res.Rounds {
					t.Fatalf("source %d: traced %d B in %d rounds, untraced %d B in %d rounds", src,
						traced.res.TotalCommBytes, traced.res.Rounds, plain.res.TotalCommBytes, plain.res.Rounds)
				}

				var bytes, msgs uint64
				for h, hl := range traced.layers.hosts {
					bytes += hl.sentBytes
					msgs += hl.sentMsgs
					var sum int64
					for _, ns := range hl.self {
						sum += ns
					}
					if gap := math.Abs(float64(sum - int64(traced.wall))); gap > selfSlack*float64(traced.wall) {
						t.Errorf("source %d host %d: layer self times sum to %v, job took %v (%v)",
							src, h, time.Duration(sum), traced.wall, hl.self)
					}
				}
				if bytes != traced.wire.BytesSent || msgs != traced.wire.MessagesSent {
					t.Fatalf("source %d: wrapper counted %d msgs %d B, comm.Stats %d msgs %d B",
						src, msgs, bytes, traced.wire.MessagesSent, traced.wire.BytesSent)
				}
				if bytes < traced.res.TotalCommBytes {
					t.Fatalf("source %d: %d wire bytes carry %d B of field sync", src, bytes, traced.res.TotalCommBytes)
				}

			}
		})
	}
}

// TestComputeMatchesMaxCompute: engine.compute_s equals Result.MaxCompute
// up to the wrapper's bookkeeping. dsys times Round from outside the
// wrapper, so compute_s never exceeds MaxCompute. The input is large
// enough that a round takes about half a millisecond, thousands of times
// the few instructions between the two timers.
func TestComputeMatchesMaxCompute(t *testing.T) {
	r := scaledRunner(t, "pr-bulk", 1, computeScale)
	o := r.runTraced(0, r.sources[0])
	if o.err != nil {
		t.Fatal(o.err)
	}
	if err := r.check(o, r.sources[0]); err != nil {
		t.Fatal(err)
	}
	compute := o.layers.vals["engine.compute_s"]
	maxCompute := o.res.MaxCompute.Seconds()
	t.Logf("engine.compute_s %.6f s, Result.MaxCompute %.6f s, %d rounds", compute, maxCompute, o.res.Rounds)
	if compute > maxCompute || compute < (1-computeSlack)*maxCompute {
		t.Errorf("engine.compute_s %v, Result.MaxCompute %v: want equal within %.0f%%",
			compute, maxCompute, 100*computeSlack)
	}
}

// TestTracedTransportForwardsPeerFailure: FailPeer reaches the wrapped
// transport, so a receive from the failed peer returns its PeerError.
func TestTracedTransportForwardsPeerFailure(t *testing.T) {
	hub := comm.NewHub(2)
	defer hub.Close()
	jt := newJobTrace(0, 2)
	ts := jt.transports(hub.Endpoints())
	pf, ok := ts[0].(comm.PeerFailer)
	if !ok {
		t.Fatal("traced transport is not a comm.PeerFailer")
	}
	pf.FailPeer(1, errors.New("injected"))
	done := make(chan error, 1)
	go func() {
		_, err := ts[0].Recv(1, comm.TagUser)
		done <- err
	}()
	select {
	case err := <-done:
		var pe *comm.PeerError
		if !errors.As(err, &pe) || pe.Host != 1 {
			t.Fatalf("Recv after FailPeer: %v, want a PeerError naming host 1", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv from the failed peer still blocks: FailPeer did not reach the transport")
	}
}

// failingProgram fails its first round.
type failingProgram struct{ dsys.Program }

func (failingProgram) Round(*bitset.Bitset) (*bitset.Bitset, error) {
	return nil, errors.New("injected round failure")
}

// TestTracedRunPropagatesFailure: when one host fails under tracing, the
// run returns that error instead of hanging, as it does untraced.
func TestTracedRunPropagatesFailure(t *testing.T) {
	r := smallRunner(t, "bfs-queries", 1)
	inner := r.factory(r.sources[0])
	failing := func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		prog, err := inner(p, g)
		if p.HostID == 1 {
			prog = failingProgram{prog}
		}
		return prog, err
	}
	hub := comm.NewHubWithModel(r.w.hosts, r.config().Net)
	defer hub.Close()
	jt := newJobTrace(0, r.w.hosts)
	jt.runCall()
	done := make(chan error, 1)
	go func() {
		_, err := dsys.RunWithTransports(r.parts, jt.transports(hub.Endpoints()), r.config(), jt.factory(failing))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a failing host succeeded")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("traced run hung after a host failed")
	}
}
