package potserve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"potgo/internal/objstore"
	"potgo/internal/obs"
	"potgo/internal/pmem"
)

// latencyBounds are the request-latency histogram bucket upper bounds in
// microseconds (1µs .. ~1s, roughly x4 per bucket).
var latencyBounds = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// flushBytes bounds the per-connection response buffer: a deep pipeline's
// responses are written out once the buffer passes this size even if more
// requests are already waiting, so the buffer's steady-state capacity stays
// small while a burst still costs ~one syscall.
const flushBytes = 64 << 10

// Backend executes one decoded request, filling resp (reusing its KVs /
// Entries capacity as scratch). The default backend runs requests straight
// against an objstore.KV; a cluster node wraps that with ownership checks
// and log replication. Exec is called concurrently from every connection
// handler and must be safe for that.
type Backend interface {
	Exec(req *Request, resp *Response)
}

// BatchBackend is a Backend that can execute a connection's burst of
// pipelined requests as one unit. ExecBatch fills resps[i] for reqs[i]
// (len(resps) == len(reqs)) with the same per-request results and the same
// per-connection order as calling Exec on each request in turn; what it
// may share across the burst is cost — one transaction, one replication
// round trip. A plain Backend gets Exec once per request instead.
type BatchBackend interface {
	Backend
	ExecBatch(reqs []Request, resps []Response)
}

// maxBurst caps how many already-buffered requests the server gathers into
// one batch before executing it: large enough to carry a client's whole
// pipeline window, small enough that the batch's scratch stays small and
// a burst's first response is not held back for long.
const maxBurst = 64

// Server serves the potserve wire protocol over a Backend. One goroutine
// per connection runs a gather → execute → encode loop: it decodes every
// request frame already buffered on the connection (up to maxBurst) into a
// batch, executes the batch — as one ExecBatch call when the backend is a
// BatchBackend, otherwise one Exec per request in order — and appends the
// responses in order to a per-connection buffer, written with one
// conn.Write when the connection has no further request ready. Different
// connections run concurrently — the sharded heap below provides the
// isolation.
//
// The request path performs zero heap allocations per request in steady
// state: the frame buffer, the batch's decoded Requests (including their
// TX ops), Responses (including their scan results) and the outgoing
// response buffer all live for the connection and are reused, growing only
// to the largest burst seen; metric handles are resolved once at Serve,
// not per request. TestServeAllocs gates this.
type Server struct {
	backend Backend
	reg     *obs.Registry
	ln      net.Listener

	// Per-op metric handles, indexed by opcode (decoders reject anything
	// above opMax). Resolved once: obs.Registry lookups are a lock and a
	// map access plus a name allocation, far too heavy per request. All
	// handles are nil-safe no-ops when reg is nil.
	latHist   [opMax + 1]*obs.Histogram
	reqCount  [opMax + 1]*obs.Counter
	connCount *obs.Counter
	protoErrs *obs.Counter
	reqErrs   *obs.Counter
	// corrupts counts StatusCorrupt responses: reads that tripped a
	// checksum on an object the store could not repair from parity.
	corrupts *obs.Counter
	// bufGrows counts reallocations of any per-connection wire buffer — the
	// observable "wire allocs": zero after warm-up.
	bufGrows *obs.Counter

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// Serve starts serving on ln over kv directly (single-node mode). It
// returns immediately; the accept loop and all connection handlers run on
// background goroutines until Close. reg may be nil (metrics disabled).
func Serve(ln net.Listener, kv *objstore.KV, reg *obs.Registry) *Server {
	return ServeBackend(ln, &KVBackend{KV: kv}, reg)
}

// ServeBackend is Serve over an arbitrary Backend (e.g. a cluster node).
func ServeBackend(ln net.Listener, backend Backend, reg *obs.Registry) *Server {
	s := &Server{backend: backend, reg: reg, ln: ln, conns: make(map[net.Conn]struct{})}
	for op := OpGet; op <= opMax; op++ {
		s.latHist[op] = reg.Histogram("potserve.latency_us."+opName(op), latencyBounds...)
		s.reqCount[op] = reg.Counter("potserve.requests." + opName(op))
	}
	s.connCount = reg.Counter("potserve.connections")
	s.protoErrs = reg.Counter("potserve.protocol_errors")
	s.reqErrs = reg.Counter("potserve.request_errors")
	s.corrupts = reg.Counter("potserve.corrupt_responses")
	s.bufGrows = reg.Counter("potserve.wire.buf_grows")
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (e.g. to dial an OS-assigned port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the accept loop, closes every live connection and waits for
// the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // Close shut the listener down
		}
		if !s.track(c) {
			c.Close()
			return
		}
		s.connCount.Add(1)
		s.wg.Add(1)
		go s.handle(c)
	}
}

// opName labels metrics; unknown opcodes never reach it (the decoder
// rejects them first).
func opName(op byte) string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	case OpScan:
		return "scan"
	case OpTx:
		return "tx"
	case OpPing:
		return "ping"
	case OpSub:
		return "sub"
	case OpRep:
		return "rep"
	case OpAck:
		return "ack"
	case OpTopo:
		return "topo"
	}
	return "unknown"
}

// appendErrFrame appends a StatusErr frame (which cannot itself fail to
// encode) to out.
func appendErrFrame(out []byte, msg string) []byte {
	hdr := len(out)
	out = append(out, 0, 0, 0, 0)
	out = append(out, StatusErr)
	out = append(out, msg...)
	binary.BigEndian.PutUint32(out[hdr:], uint32(len(out)-hdr-4))
	return out
}

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer s.untrack(c)
	defer c.Close()

	br := bufio.NewReader(c)
	batcher, _ := s.backend.(BatchBackend)
	// Connection-lifetime scratch: the frame buffer, the batch's decoded
	// requests (whose Ops slices are the TX scratch) and responses (whose
	// KVs slices are the scan scratch), per-slot decode errors, and the
	// outgoing byte buffer.
	var (
		frame  []byte
		reqs   []Request
		resps  []Response
		bad    []error
		out    []byte
		scaps  [2]int // previous frame/out capacities, for buf_grows
		batchc int    // previous total batch-scratch capacity, for buf_grows
	)
	for {
		// Gather: block for one frame, then take every frame already
		// buffered behind it.
		n := 0
		for n == 0 || (n < maxBurst && br.Buffered() > 0) {
			var err error
			frame, err = ReadFrameInto(br, frame)
			if err != nil {
				// A clean EOF between frames is the peer hanging up;
				// anything else (truncation, oversized prefix) is a
				// protocol error and the connection is beyond recovery
				// either way. Requests already gathered die with it, as
				// their responses could not be delivered.
				if !errors.Is(err, io.EOF) {
					s.protoErrs.Add(1)
				}
				return
			}
			if n == len(reqs) {
				reqs = append(reqs, Request{})
				resps = append(resps, Response{})
				bad = append(bad, nil)
			}
			// A frame that fails to decode keeps its slot: the frame
			// boundary survived, so the stream is still in sync and the
			// slot is answered StatusErr in order.
			bad[n] = DecodeRequestInto(frame, &reqs[n])
			n++
		}

		// Execute: maximal runs of decoded requests, in order.
		for i := 0; i < n; {
			if bad[i] != nil {
				i++
				continue
			}
			j := i + 1
			for j < n && bad[j] == nil {
				j++
			}
			s.exec(batcher, reqs[i:j], resps[i:j])
			i = j
		}

		// Encode in order.
		for i := 0; i < n; i++ {
			if bad[i] != nil {
				s.protoErrs.Add(1)
				out = appendErrFrame(out, bad[i].Error())
				continue
			}
			var err error
			out, err = AppendResponseFrame(out, reqs[i].Op, resps[i])
			if err != nil {
				out = appendErrFrame(out, err.Error())
			}
		}
		s.noteGrowth(&scaps, &batchc, frame, out, reqs[:n], resps[:n])
		// Pipelining: only write when no further request is already
		// buffered (a burst of N requests costs one syscall of responses,
		// while a lone request is answered immediately), or when the
		// response buffer is past its flush bound.
		if br.Buffered() == 0 || len(out) >= flushBytes {
			if _, err := c.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}
}

// exec runs one run of decoded requests through the backend and records
// their metrics. A batch's requests each wait for the whole batch, so each
// is charged the batch's latency.
func (s *Server) exec(batcher BatchBackend, reqs []Request, resps []Response) {
	if batcher != nil {
		start := time.Now()
		batcher.ExecBatch(reqs, resps)
		us := float64(time.Since(start).Microseconds())
		for i := range reqs {
			s.observe(&reqs[i], &resps[i], us)
		}
		return
	}
	for i := range reqs {
		start := time.Now()
		s.backend.Exec(&reqs[i], &resps[i])
		s.observe(&reqs[i], &resps[i], float64(time.Since(start).Microseconds()))
	}
}

// observe records one executed request's latency, count and error status.
func (s *Server) observe(req *Request, resp *Response, us float64) {
	s.latHist[req.Op].Observe(us)
	s.reqCount[req.Op].Add(1)
	if resp.Status == StatusErr {
		s.reqErrs.Add(1)
	}
	if resp.Status == StatusCorrupt {
		s.corrupts.Add(1)
	}
}

// noteGrowth bumps the wire-allocation counter whenever a per-connection
// scratch buffer had to grow: the frame and output buffers, or the batch
// scratch (request and response slots plus their TX-op and scan-result
// slices, tracked as one total). In steady state every capacity is stable
// and this observes nothing.
func (s *Server) noteGrowth(caps *[2]int, batchCap *int, frame, out []byte, reqs []Request, resps []Response) {
	for i, c := range [2]int{cap(frame), cap(out)} {
		if c > caps[i] {
			if caps[i] > 0 {
				s.bufGrows.Add(1)
			}
			caps[i] = c
		}
	}
	total := cap(reqs) + cap(resps)
	for i := range reqs {
		total += cap(reqs[i].Ops) + cap(resps[i].KVs)
	}
	if total > *batchCap {
		if *batchCap > 0 {
			s.bufGrows.Add(1)
		}
		*batchCap = total
	}
}

// KVBackend is the single-node Backend: requests run straight against the
// store. Replication ops answer StatusErr — a lone node has no peers.
type KVBackend struct {
	KV *objstore.KV
}

// Exec runs one decoded request against the store, reusing resp's KVs
// capacity for scan results.
func (b *KVBackend) Exec(req *Request, resp *Response) {
	kvs := resp.KVs[:0]
	*resp = Response{KVs: kvs}
	switch req.Op {
	case OpGet:
		val, ok, err := b.KV.Get(req.Key)
		switch {
		// The store already tried an inline repair before surfacing
		// ErrCorrupt; answer StatusCorrupt rather than tearing the
		// connection down — the stream is in sync and every other key
		// is still servable. Graceful degradation, never wrong data.
		case err != nil && errors.Is(err, pmem.ErrCorrupt):
			resp.Status = StatusCorrupt
		case err != nil:
			resp.Status, resp.Msg = StatusErr, err.Error()
		case !ok:
			resp.Status = StatusNotFound
		default:
			resp.Status, resp.Val = StatusOK, val
		}
	case OpPut:
		created, err := b.KV.Put(req.Key, req.Val)
		if err != nil {
			resp.Status, resp.Msg = StatusErr, err.Error()
			return
		}
		resp.Status, resp.Created = StatusOK, created
	case OpDel:
		existed, err := b.KV.Delete(req.Key)
		switch {
		case err != nil:
			resp.Status, resp.Msg = StatusErr, err.Error()
		case !existed:
			resp.Status = StatusNotFound
		default:
			resp.Status = StatusOK
		}
	case OpScan:
		kvs, err := b.KV.ScanAppend(kvs, req.From, int(req.Max))
		resp.KVs = kvs
		if err != nil {
			if errors.Is(err, pmem.ErrCorrupt) {
				resp.KVs = kvs[:0]
				resp.Status = StatusCorrupt
				return
			}
			resp.Status, resp.Msg = StatusErr, err.Error()
			return
		}
		resp.Status = StatusOK
	case OpTx:
		if err := b.KV.Batch(req.Ops, nil); err != nil {
			resp.Status, resp.Msg = StatusErr, err.Error()
			return
		}
		resp.Status = StatusOK
	case OpPing:
		resp.Status = StatusOK
	default:
		resp.Status, resp.Msg = StatusErr, fmt.Sprintf("potserve: unhandled op %d", req.Op)
	}
}
