package main

// The tracer records spans from outside the program: it wraps each host's
// dsys.Program (through the ProgramFactory) and comm.Transport, and times
// the calls into them. The wrappers only delegate; nothing inside the
// program is instrumented.

import (
	"sync"
	"sync/atomic"
	"time"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// Span names. Each names the layer it times.
const (
	spanDial     = "comm.dial"     // transport creation inside the job (in-process hub)
	spanNew      = "gluon.new"     // from the dsys.Run* call to this host's factory call
	spanEngNew   = "engine.new"    // the algorithm factory building the engine program
	spanInit     = "dsys.init"     // Program.Init
	spanRound    = "engine.round"  // Program.Round
	spanSync     = "gluon.sync"    // Program.Sync
	spanFinalize = "dsys.finalize" // Program.Finalize
	spanSend     = "comm.send"     // Transport.Send and SendVec
	spanRecv     = "comm.recv"     // Transport.Recv and RecvAny
)

// span is one timed call. Times are nanoseconds since the job started.
type span struct {
	Name   string `json:"name"`
	Host   int    `json:"host"`
	Job    int    `json:"job"`
	Round  int    `json:"round"` // -1 before the first round
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span on this host, -1 at top level
	// Comm spans: the message tag, and bytes moved by a call that succeeded.
	Tag   uint32 `json:"tag,omitempty"`
	Bytes int    `json:"bytes,omitempty"`
	// Round spans: proxies in the frontier handed in, and proxies updated.
	Frontier uint32 `json:"frontier,omitempty"`
	Updated  uint32 `json:"updated,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// jobTrace collects the spans of one job on every host.
type jobTrace struct {
	id    int
	start time.Time
	hosts []*hostTrace
}

// hostTrace is one host's span list. Program calls come from the host's
// driver goroutine; transport calls may also come from Gluon's send
// goroutines, hence the lock.
type hostTrace struct {
	job   *jobTrace
	host  int
	mu    sync.Mutex
	spans []span
	// open is the index of the span in progress on the driver goroutine
	// (the parent of transport calls made meanwhile), -1 when none.
	open  atomic.Int32
	round atomic.Int32
}

// newJobTrace starts the clock of job id.
func newJobTrace(id, hosts int) *jobTrace {
	jt := &jobTrace{id: id, start: time.Now()}
	for h := 0; h < hosts; h++ {
		ht := &hostTrace{job: jt, host: h}
		ht.round.Store(-1)
		ht.open.Store(-1)
		jt.hosts = append(jt.hosts, ht)
	}
	return jt
}

func (jt *jobTrace) now() int64 { return int64(time.Since(jt.start)) }

// dialed records [0, now) as the transport-creation span of every host
// and returns its length.
func (jt *jobTrace) dialed() time.Duration {
	end := jt.now()
	for _, h := range jt.hosts {
		h.add(span{Name: spanDial, Start: 0, End: end, Parent: -1})
	}
	return time.Duration(end)
}

// runCall marks the dsys.Run* call: each host's gluon.new span opens here.
func (jt *jobTrace) runCall() {
	now := jt.now()
	for _, h := range jt.hosts {
		h.open.Store(int32(h.add(span{Name: spanNew, Start: now, End: -1, Parent: -1})))
	}
}

func (h *hostTrace) add(s span) int {
	s.Host, s.Job, s.Round = h.host, h.job.id, int(h.round.Load())
	h.mu.Lock()
	defer h.mu.Unlock()
	h.spans = append(h.spans, s)
	return len(h.spans) - 1
}

// begin opens a program-call span on the driver goroutine.
func (h *hostTrace) begin(name string) int {
	i := h.add(span{Name: name, Start: h.job.now(), End: -1, Parent: -1})
	h.open.Store(int32(i))
	return i
}

// end closes span i now.
func (h *hostTrace) end(i int) { h.endAt(i, h.job.now(), 0, 0) }

// endAt closes span i at time end; a round span also takes its frontier
// and updated counts.
func (h *hostTrace) endAt(i int, end int64, frontier, updated uint32) {
	h.open.Store(-1)
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.spans[i]
	s.End, s.Frontier, s.Updated = end, frontier, updated
}

// comm records one finished transport call.
func (h *hostTrace) comm(name string, tag comm.Tag, start int64, bytes int, err error) {
	if err != nil {
		bytes = 0
	}
	h.add(span{Name: name, Start: start, End: h.job.now(), Parent: int(h.open.Load()),
		Tag: uint32(tag), Bytes: bytes})
}

// factory wraps f so that each host's program is traced, and closes the
// host's gluon.new span when dsys calls the factory.
func (jt *jobTrace) factory(f dsys.ProgramFactory) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		h := jt.hosts[p.HostID]
		if i := int(h.open.Load()); i >= 0 {
			h.end(i)
		}
		i := h.begin(spanEngNew)
		prog, err := f(p, g)
		h.end(i)
		if err != nil {
			return nil, err
		}
		return &tracedProgram{Program: prog, h: h}, nil
	}
}

// transports wraps each host's transport.
func (jt *jobTrace) transports(ts []comm.Transport) []comm.Transport {
	out := make([]comm.Transport, len(ts))
	for i, t := range ts {
		out[i] = &tracedTransport{Transport: t, h: jt.hosts[i]}
	}
	return out
}

// tracedProgram times the calls dsys makes into a Program.
type tracedProgram struct {
	dsys.Program
	h      *hostTrace
	rounds int32
}

func (p *tracedProgram) Init() (*bitset.Bitset, error) {
	i := p.h.begin(spanInit)
	f, err := p.Program.Init()
	p.h.end(i)
	return f, err
}

func (p *tracedProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	p.h.round.Store(p.rounds)
	p.rounds++
	var n uint32
	if frontier != nil {
		n = frontier.Count()
	}
	i := p.h.begin(spanRound)
	updated, err := p.Program.Round(frontier)
	end := p.h.job.now()
	var u uint32
	if updated != nil {
		u = updated.Count()
	}
	p.h.endAt(i, end, n, u)
	return updated, err
}

func (p *tracedProgram) Sync(updated *bitset.Bitset) error {
	i := p.h.begin(spanSync)
	err := p.Program.Sync(updated)
	p.h.end(i)
	return err
}

func (p *tracedProgram) Finalize() error {
	i := p.h.begin(spanFinalize)
	err := p.Program.Finalize()
	p.h.end(i)
	return err
}

// tracedTransport times the calls Gluon and dsys make into a Transport.
// Payload ownership passes through unchanged: the wrapper reads only
// lengths, and only before handing the payload on.
type tracedTransport struct {
	comm.Transport
	h *hostTrace
}

func (t *tracedTransport) Send(to int, tag comm.Tag, payload []byte) error {
	n, start := len(payload), t.h.job.now()
	err := t.Transport.Send(to, tag, payload)
	t.h.comm(spanSend, tag, start, n, err)
	return err
}

func (t *tracedTransport) SendVec(to int, tag comm.Tag, header, payload []byte) error {
	n, start := len(header)+len(payload), t.h.job.now()
	err := t.Transport.SendVec(to, tag, header, payload)
	t.h.comm(spanSend, tag, start, n, err)
	return err
}

func (t *tracedTransport) Recv(from int, tag comm.Tag) ([]byte, error) {
	start := t.h.job.now()
	p, err := t.Transport.Recv(from, tag)
	t.h.comm(spanRecv, tag, start, len(p), err)
	return p, err
}

func (t *tracedTransport) RecvAny(tag comm.Tag, from []int) (int, []byte, error) {
	start := t.h.job.now()
	h, p, err := t.Transport.RecvAny(tag, from)
	t.h.comm(spanRecv, tag, start, len(p), err)
	return h, p, err
}

// FailPeer forwards dsys's failure propagation to the wrapped transport.
func (t *tracedTransport) FailPeer(host int, err error) {
	if pf, ok := t.Transport.(comm.PeerFailer); ok {
		pf.FailPeer(host, err)
	}
}
