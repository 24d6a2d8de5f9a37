package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/algorithms/pr"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/bench"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// workload is one set of inputs and one way of driving the system.
type workload struct {
	name   string
	alg    string // "pr", "bfs" or "sssp"
	hosts  int
	policy partition.Kind
	tcp    bool // a reused loopback TCP mesh instead of the in-process hub
	batch  int  // jobs per batch; query workloads use one source per job
}

var workloads = []workload{
	{name: "pr-bulk", alg: "pr", hosts: 4, policy: partition.CVC, batch: 4},
	{name: "bfs-queries", alg: "bfs", hosts: 4, policy: partition.OEC, batch: 100},
	{name: "sssp-tcp", alg: "sssp", hosts: 2, policy: partition.IEC, tcp: true, batch: 100},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// The input: R-MAT scale 16, edge factor 16 (65,536 V, 1,048,576 E).
	inputScale      = 16
	inputEdgeFactor = 16
	// prRounds fixes every PageRank job at this many rounds.
	prRounds = 50
	// prTol is unreachable, so the round cap ends every PageRank job.
	prTol = math.SmallestNonzeroFloat64
	// workersPerHost is the engine worker count of every host.
	workersPerHost = 1
	// setupReps is how many times a run sets up; setup_s is the least.
	setupReps = 15
)

// linkModel is the in-process hub's simulated link: 50 µs, 50 MB/s.
var linkModel = bench.DefaultParams().Net

// runner holds one workload's state across the jobs of a run.
type runner struct {
	w       workload
	in      *input
	sources []uint64 // the jobs of one batch
	answers map[uint64]*answer
	parts   []*partition.Partition
	mesh    []comm.Transport // TCP workloads: dialled in setup, reused by every job
	eps     []*comm.TCPEndpoint
}

// newRunner prepares workload w on input in: it draws the sources and
// solves every reference answer.
func newRunner(w workload, in *input) (*runner, error) {
	r := &runner{w: w, in: in, answers: map[uint64]*answer{}}
	var err error
	if w.alg == "pr" {
		r.sources = make([]uint64, w.batch)
	} else if r.sources, err = in.sources(w.batch); err != nil {
		return nil, err
	}
	if err := r.solveAll(); err != nil {
		return nil, err
	}
	return r, nil
}

// solveAll computes the reference answer of every source before anything
// is timed.
func (r *runner) solveAll() error {
	for _, s := range r.sources {
		if _, ok := r.answers[s]; ok {
			continue
		}
		a, err := solveRef(r.w.alg, r.in, s, prRounds)
		if err != nil {
			return err
		}
		r.answers[s] = a
	}
	return nil
}

// setupTimes splits one setup.
type setupTimes struct {
	total, partition, dial time.Duration
	cpu                    time.Duration // process CPU time of the whole setup
}

// setup partitions the input and, on TCP workloads, dials the mesh. The
// timed region starts from the edge list in memory and ends ready for the
// first job.
func (r *runner) setup() (setupTimes, error) {
	r.close()
	r.parts = nil
	runtime.GC() // start each repetition from the same heap
	var st setupTimes
	start, cpu0 := time.Now(), cpuTime()
	outDeg := make([]uint32, r.in.numNodes)
	inDeg := make([]uint32, r.in.numNodes)
	for _, e := range r.in.edges {
		outDeg[e.Src]++
		inDeg[e.Dst]++
	}
	pol, err := partition.NewPolicy(r.w.policy, r.in.numNodes, r.w.hosts,
		partition.Options{OutDegrees: outDeg, InDegrees: inDeg})
	if err != nil {
		return st, err
	}
	if r.parts, err = partition.PartitionAll(r.in.numNodes, r.in.edges, pol); err != nil {
		return st, err
	}
	st.partition = time.Since(start)
	if r.w.tcp {
		t0 := time.Now()
		if err := r.dial(); err != nil {
			return st, err
		}
		st.dial = time.Since(t0)
	}
	st.total, st.cpu = time.Since(start), cpuTime()-cpu0
	return st, nil
}

// dial builds a loopback TCP mesh, one connection pair per host pair.
func (r *runner) dial() error {
	addrs := make([]string, r.w.hosts)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("reserve a loopback port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	eps := make([]*comm.TCPEndpoint, r.w.hosts)
	errs := make([]error, r.w.hosts)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = comm.DialTCPConfig(i, addrs, comm.DialConfig{Timeout: 10 * time.Second})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					ep.Close()
				}
			}
			return fmt.Errorf("dial host %d: %w", i, err)
		}
	}
	r.eps = eps
	r.mesh = make([]comm.Transport, len(eps))
	for i, ep := range eps {
		r.mesh[i] = ep
	}
	return nil
}

// close tears the TCP mesh down; Close waits for the endpoint's reader
// goroutines.
func (r *runner) close() {
	for _, ep := range r.eps {
		ep.Close()
	}
	r.eps, r.mesh = nil, nil
}

func (r *runner) factory(source uint64) dsys.ProgramFactory {
	switch r.w.alg {
	case "pr":
		return pr.NewGalois(prTol, workersPerHost)
	case "bfs":
		return bfs.NewLigra(source, workersPerHost)
	default:
		return sssp.NewIrGL(source, workersPerHost)
	}
}

func (r *runner) config() dsys.RunConfig {
	cfg := dsys.RunConfig{
		Hosts: r.w.hosts, Policy: r.w.policy, Opt: gluon.Opt(),
		CollectValues: true,
	}
	if !r.w.tcp {
		cfg.Net = linkModel
	}
	if r.w.alg == "pr" {
		cfg.MaxRounds = prRounds
	}
	return cfg
}

// outcome is one job as the benchmark saw it.
type outcome struct {
	res  *dsys.Result
	wall time.Duration
	cpu  time.Duration // process CPU time, all threads
	err  error
	// Traced jobs only.
	layers jobLayers
	jt     *jobTrace
	dial   time.Duration // in-process hub creation
	wire   comm.Stats    // transport counters the job moved
}

// run times one untraced job: the whole dsys.Run* call.
func (r *runner) run(source uint64) outcome {
	cfg, f := r.config(), r.factory(source)
	var o outcome
	start, cpu0 := time.Now(), cpuTime()
	if r.mesh != nil {
		o.res, o.err = dsys.RunWithTransports(r.parts, r.mesh, cfg, f)
	} else {
		o.res, o.err = dsys.RunPartitioned(r.parts, cfg, f)
	}
	o.wall, o.cpu = time.Since(start), cpuTime()-cpu0
	return o
}

// runTraced runs one job with every host's Program and Transport wrapped.
// The in-process hub is built here, as RunPartitioned builds it, so that
// traced and untraced jobs time the same work.
func (r *runner) runTraced(id int, source uint64) outcome {
	cfg, f := r.config(), r.factory(source)
	var o outcome
	jt := newJobTrace(id, r.w.hosts)
	ts := r.mesh
	var hub *comm.Hub
	if ts == nil {
		hub = comm.NewHubWithModel(r.w.hosts, cfg.Net)
		ts = hub.Endpoints()
		o.dial = jt.dialed()
	}
	before := wireStats(ts)
	jt.runCall()
	o.res, o.err = dsys.RunWithTransports(r.parts, jt.transports(ts), cfg, jt.factory(f))
	if hub != nil {
		hub.Close()
	}
	o.wall = time.Duration(jt.now())
	after := wireStats(ts)
	o.wire = comm.Stats{
		MessagesSent: after.MessagesSent - before.MessagesSent,
		BytesSent:    after.BytesSent - before.BytesSent,
	}
	o.jt = jt
	if o.err == nil {
		o.layers = analyzeJob(jt, o.wall, o.res, o.wire)
	}
	return o
}

func wireStats(ts []comm.Transport) comm.Stats {
	var s comm.Stats
	for _, t := range ts {
		st := t.Stats()
		s.MessagesSent += st.MessagesSent
		s.BytesSent += st.BytesSent
	}
	return s
}

// check verifies a job against the reference answer of its source.
func (r *runner) check(o outcome, source uint64) error {
	if o.err != nil {
		return o.err
	}
	return r.answers[source].check(o.res.Values)
}
