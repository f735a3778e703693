package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"potgo/internal/potserve"
)

// phase is what one load phase observed, merged over its connections.
type phase struct {
	ops, failed int
	wall        time.Duration
	lat         map[byte]samples // per-op latency, µs
	late        samples          // open loop: send time minus due time, µs
	firstErr    error
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *phase) merge(q *phase) {
	p.ops += q.ops
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	if p.lat == nil {
		p.lat = map[byte]samples{}
	}
	for op, s := range q.lat {
		p.lat[op] = append(p.lat[op], s...)
	}
	p.late = append(p.late, q.late...)
}

func (p *phase) observe(op byte, d time.Duration) {
	if p.lat == nil {
		p.lat = map[byte]samples{}
	}
	s := p.lat[op]
	s.add(d)
	p.lat[op] = s
}

func (p *phase) opsPerSec() float64 { return ratio(float64(p.ops), p.wall.Seconds()) }

// batcher runs one pipelined batch and returns its responses in order.
type batcher func([]potserve.Request) ([]potserve.Response, error)

// closedLoop drives one connection per generator at pipeline depth `depth`
// until each has issued perConn requests, checking every answer. Every
// request of a batch is charged the batch's round trip. tr, when non-nil,
// records a span per batch that carries a sampled request.
func closedLoop(dial func(c int) (batcher, func(), error), gens [conns]*gen, m model, perConn int, tr *tracer) phase {
	var parts [conns]phase
	var wg sync.WaitGroup
	runtime.GC() // start every phase from the same collector state
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			run, closeFn, err := dial(c)
			if err != nil {
				p.ops += perConn
				p.fail(fmt.Errorf("conn %d: dial: %w", c, err))
				return
			}
			defer closeFn()
			reqs := make([]potserve.Request, 0, depth)
			for done := 0; done < perConn; {
				reqs = reqs[:0]
				for len(reqs) < depth && done+len(reqs) < perConn {
					reqs = append(reqs, gens[c].next())
				}
				t0 := time.Now()
				resps, err := run(reqs)
				t1 := time.Now()
				p.ops += len(reqs)
				done += len(reqs)
				if err != nil {
					for range reqs {
						p.fail(fmt.Errorf("conn %d: %w", c, err))
					}
					return
				}
				d := t1.Sub(t0)
				for i := range reqs {
					p.observe(reqs[i].Op, d)
					if err := m.check(c, &reqs[i], &resps[i]); err != nil {
						p.fail(err)
					}
				}
				if tr != nil {
					tr.clientBatch(c, reqs, t0, t1)
				}
			}
		}(c)
	}
	wg.Wait()
	var out phase
	for c := range parts {
		out.merge(&parts[c])
	}
	out.wall = time.Since(start)
	return out
}

// pipelineBatcher is the single-node batcher: one potserve connection.
func pipelineBatcher(addr string) (batcher, func(), error) {
	cl, err := potserve.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	var resps []potserve.Response
	return func(reqs []potserve.Request) ([]potserve.Response, error) {
		var err error
		resps, err = cl.PipelineAppend(reqs, resps)
		return resps, err
	}, func() { cl.Close() }, nil
}

// sent is one open-loop request in flight.
type sent struct {
	req      potserve.Request
	due, out time.Time
}

// openLoop offers `rate` requests per second in total, split evenly over
// the connections, with exponential gaps drawn from the seed: a Poisson
// arrival stream that does not wait for answers. Each connection's sender
// writes every request that has come due in one write, its receiver reads
// the answers in order; latency runs from each request's due time, so a
// stall also charges the requests it delayed.
func openLoop(addr string, gens [conns]*gen, m model, rate float64, perConn int, seed uint64, timeout time.Duration) phase {
	var parts [conns]phase
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now().Add(time.Millisecond)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				p.ops += perConn
				p.fail(fmt.Errorf("conn %d: dial: %w", c, err))
				return
			}
			defer conn.Close()
			if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
				p.fail(err)
				return
			}
			// Sized to every send of the phase, so the sender never blocks
			// on a slow receiver: the offered load stays open.
			pending := make(chan sent, perConn)
			sendErr := make(chan error, 1)
			go func() {
				sendErr <- sendOpen(conn, gens[c], pending, rate/conns, perConn, start, seed, c)
			}()
			br := bufio.NewReader(conn)
			var frame []byte
			var resp potserve.Response
			for i := 0; i < perConn; i++ {
				frame, err = potserve.ReadFrameInto(br, frame)
				if err != nil {
					p.ops += perConn - i
					for ; i < perConn; i++ {
						p.fail(fmt.Errorf("conn %d: read: %w", c, err))
					}
					break
				}
				now := time.Now()
				s := <-pending
				p.ops++
				if err := potserve.DecodeResponseInto(s.req.Op, frame, &resp); err != nil {
					p.fail(err)
					continue
				}
				p.observe(s.req.Op, now.Sub(s.due))
				p.late.add(s.out.Sub(s.due))
				if err := m.check(c, &s.req, &resp); err != nil {
					p.fail(err)
				}
			}
			conn.Close() // unblocks a sender stuck on a dead connection
			if err := <-sendErr; err != nil && p.firstErr == nil {
				p.firstErr = err
			}
		}(c)
	}
	wg.Wait()
	var out phase
	for c := range parts {
		out.merge(&parts[c])
	}
	out.wall = time.Since(start)
	return out
}

// sendOpen is one connection's open-loop sender.
func sendOpen(conn net.Conn, g *gen, pending chan<- sent, rate float64, n int, start time.Time, seed uint64, c int) error {
	gaps := rand.New(rand.NewSource(int64(seed)*31 + int64(c) + 17))
	mean := float64(time.Second) / rate
	due := start
	var buf []byte
	p := newPacer()
	defer p.close()
	for i := 0; i < n; {
		p.until(due)
		now := time.Now()
		buf = buf[:0]
		for i < n && !due.After(now) {
			req := g.next()
			var err error
			if buf, err = potserve.AppendRequestFrame(buf, req); err != nil {
				return err
			}
			pending <- sent{req: req, due: due, out: now}
			i++
			due = due.Add(time.Duration(gaps.ExpFloat64() * mean))
		}
		if _, err := conn.Write(buf); err != nil {
			return fmt.Errorf("conn %d: write: %w", c, err)
		}
	}
	return nil
}
