package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/wire"
)

// This file holds the spans and counters of a traced run. They live in
// the benchmark, around the calls into each layer; the program itself is
// not instrumented. A traced stack differs from an untraced one only by
// these wrappers, and every wrapper forwards the optional interfaces its
// layer's callers probe for (quorum.InplacePicker, quorum.SpareSampler,
// transport.HealthReporter), so the traced run takes the same code path as
// the measured one.
//
// Spans:
//
//   - op: one register Read or Write, begun and ended by the caller. It
//     travels to the transport in the operation's context (register passes
//     the op's ctx to Transport.Call).
//   - call: one Transport.Call, a child of the op found in its context.
//   - handle: one replica Handle (no parent link: on TCP the handler runs
//     in a server goroutine; call and handle spans pair one to one in a
//     fault-free run, so their sums subtract exactly).
//   - pick: one quorum sample.

// tracer aggregates the spans of one traced phase.
type tracer struct {
	picks, pickNs     atomic.Int64
	handles, handleNs atomic.Int64
	orphanCalls       atomic.Int64

	// wire sample: the first len(mix) request/reply pairs the transport
	// carried, replayed through the wire codec after the phase.
	mixNext atomic.Int64
	mix     []msgPair

	mu   sync.Mutex
	aggs []*opAgg
}

type msgPair struct{ req, resp any }

// wireMixSize bounds the request/reply sample replayed through wire.
const wireMixSize = 4096

func newTracer() *tracer { return &tracer{mix: make([]msgPair, wireMixSize)} }

// opKey is the context key carrying an op span.
type opKey struct{}

// opSpan is one register operation. Calls append their spans concurrently
// (the gather engine runs them on its workers).
type opSpan struct {
	start time.Time
	mu    sync.Mutex
	calls []callSpan
}

// callSpan is one transport call, as offsets from its op's start.
type callSpan struct {
	start, end time.Duration
	failed     bool
}

// opAgg folds the op spans of one caller; each caller owns one, so
// folding needs no lock.
type opAgg struct {
	ops                int64
	selfNs, tailNs     int64
	calls, callErrs    int64
	dispatchNs, callNs int64
	callDurs           []int64
	intervals          []callSpan
}

// newAgg returns a per-caller aggregate registered with the tracer.
func (t *tracer) newAgg() *opAgg {
	a := &opAgg{}
	t.mu.Lock()
	t.aggs = append(t.aggs, a)
	t.mu.Unlock()
	return a
}

// begin opens an op span and returns the context that carries it.
func (t *tracer) begin(ctx context.Context, start time.Time) (context.Context, *opSpan) {
	op := &opSpan{start: start, calls: make([]callSpan, 0, 32)}
	return context.WithValue(ctx, opKey{}, op), op
}

// end closes an op span and folds it into the caller's aggregate: self
// time is the op's duration minus the union of its call spans, dispatch
// wait runs from op start to each call's start, and the tail gap from the
// last call's end to the op's end.
func (a *opAgg) end(op *opSpan, end time.Time) {
	dur := end.Sub(op.start)
	op.mu.Lock()
	calls := append(a.intervals[:0], op.calls...)
	op.mu.Unlock()
	a.intervals = calls
	a.ops++
	sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
	var covered, lastEnd time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, c := range calls {
		a.calls++
		if c.failed {
			a.callErrs++
		}
		a.dispatchNs += int64(c.start)
		a.callNs += int64(c.end - c.start)
		a.callDurs = append(a.callDurs, int64(c.end-c.start))
		if c.end > lastEnd {
			lastEnd = c.end
		}
		if c.start > curEnd {
			if curEnd >= 0 {
				covered += curEnd - curStart
			}
			curStart, curEnd = c.start, c.end
		} else if c.end > curEnd {
			curEnd = c.end
		}
	}
	if curEnd >= 0 {
		covered += curEnd - curStart
	}
	a.selfNs += int64(dur - covered)
	if len(calls) > 0 {
		a.tailNs += int64(dur - lastEnd)
	}
}

// totals merges the per-caller aggregates; call it after the callers
// stopped.
func (t *tracer) totals() opAgg {
	var s opAgg
	for _, a := range t.aggs {
		s.ops += a.ops
		s.selfNs += a.selfNs
		s.tailNs += a.tailNs
		s.calls += a.calls
		s.callErrs += a.callErrs
		s.dispatchNs += a.dispatchNs
		s.callNs += a.callNs
		s.callDurs = append(s.callDurs, a.callDurs...)
	}
	return s
}

// --- quorum ---

// tracedSystem times every sample the register client draws.
type tracedSystem struct {
	quorum.System
	t *tracer
}

func (s *tracedSystem) Pick(r *rand.Rand) []quorum.ServerID {
	t0 := time.Now()
	q := s.System.Pick(r)
	s.t.notePick(t0)
	return q
}

func (t *tracer) notePick(t0 time.Time) {
	t.pickNs.Add(int64(time.Since(t0)))
	t.picks.Add(1)
}

func (s *tracedSystem) pickInto(r *rand.Rand, dst []quorum.ServerID) []quorum.ServerID {
	t0 := time.Now()
	q := s.System.(quorum.InplacePicker).PickInto(r, dst)
	s.t.notePick(t0)
	return q
}

func (s *tracedSystem) pickWithSpares(r *rand.Rand, spares int) (q, spare []quorum.ServerID) {
	t0 := time.Now()
	q, spare = s.System.(quorum.SpareSampler).PickWithSpares(r, spares)
	s.t.notePick(t0)
	return q, spare
}

type tracedInplace struct{ *tracedSystem }

func (s tracedInplace) PickInto(r *rand.Rand, dst []quorum.ServerID) []quorum.ServerID {
	return s.pickInto(r, dst)
}

type tracedSpares struct{ *tracedSystem }

func (s tracedSpares) PickWithSpares(r *rand.Rand, spares int) (q, spare []quorum.ServerID) {
	return s.pickWithSpares(r, spares)
}

type tracedInplaceSpares struct{ *tracedSystem }

func (s tracedInplaceSpares) PickInto(r *rand.Rand, dst []quorum.ServerID) []quorum.ServerID {
	return s.pickInto(r, dst)
}

func (s tracedInplaceSpares) PickWithSpares(r *rand.Rand, spares int) (q, spare []quorum.ServerID) {
	return s.pickWithSpares(r, spares)
}

// traceSystem wraps sys, forwarding exactly the optional sampling
// interfaces sys implements.
func traceSystem(sys quorum.System, t *tracer) quorum.System {
	base := &tracedSystem{System: sys, t: t}
	_, inplace := sys.(quorum.InplacePicker)
	_, spares := sys.(quorum.SpareSampler)
	switch {
	case inplace && spares:
		return tracedInplaceSpares{base}
	case inplace:
		return tracedInplace{base}
	case spares:
		return tracedSpares{base}
	}
	return base
}

// --- transport ---

// tracedTransport records a call span per Transport.Call, parented to the
// op span in the call's context, and samples the message mix for wire.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
}

func (tt *tracedTransport) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	t0 := time.Now()
	resp, err := tt.inner.Call(ctx, to, req)
	t1 := time.Now()
	if err == nil {
		if i := tt.t.mixNext.Add(1) - 1; i < int64(len(tt.t.mix)) {
			tt.t.mix[i] = msgPair{req: req, resp: resp}
		}
	}
	op, _ := ctx.Value(opKey{}).(*opSpan)
	if op == nil {
		tt.t.orphanCalls.Add(1)
		return resp, err
	}
	op.mu.Lock()
	op.calls = append(op.calls, callSpan{start: t0.Sub(op.start), end: t1.Sub(op.start), failed: err != nil})
	op.mu.Unlock()
	return resp, err
}

type tracedHealth struct {
	*tracedTransport
	hr transport.HealthReporter
}

func (th tracedHealth) ServerDown(id quorum.ServerID) bool { return th.hr.ServerDown(id) }

// traceTransport wraps tr, forwarding transport.HealthReporter when tr
// implements it (register consults it at every dispatch).
func traceTransport(tr transport.Transport, t *tracer) transport.Transport {
	base := &tracedTransport{inner: tr, t: t}
	if hr, ok := tr.(transport.HealthReporter); ok {
		return tracedHealth{base, hr}
	}
	return base
}

// --- replica ---

// tracedHandler records a handle span per replica Handle.
type tracedHandler struct {
	inner transport.Handler
	t     *tracer
}

func (h tracedHandler) Handle(ctx context.Context, req any) (any, error) {
	t0 := time.Now()
	resp, err := h.inner.Handle(ctx, req)
	h.t.handleNs.Add(int64(time.Since(t0)))
	h.t.handles.Add(1)
	return resp, err
}

// --- wire ---

// wireRoundTrip replays the sampled request/reply mix through the wire
// codec (request envelope encode+decode, reply envelope encode+decode)
// for at least minDur and returns the mean ns per pair and the number of
// pairs timed. Every decoded envelope is checked against its id.
func (t *tracer) wireRoundTrip(minDur time.Duration) (nsPerPair float64, pairs int, err error) {
	n := int(t.mixNext.Load())
	if n > len(t.mix) {
		n = len(t.mix)
	}
	if n == 0 {
		return 0, 0, nil
	}
	mix := t.mix[:n]
	buf := make([]byte, 0, 512)
	start := time.Now()
	for time.Since(start) < minDur {
		for i, p := range mix {
			id := uint64(i + 1)
			b, err := wire.AppendEnvelope(buf[:0], wire.Envelope{ID: id, Payload: p.req})
			if err != nil {
				return 0, 0, err
			}
			env, err := wire.DecodeEnvelope(b)
			if err != nil {
				return 0, 0, err
			}
			b, err = wire.AppendReplyEnvelope(b[:0], wire.ReplyEnvelope{ID: id, Payload: p.resp})
			if err != nil {
				return 0, 0, err
			}
			renv, err := wire.DecodeReplyEnvelope(b)
			if err != nil {
				return 0, 0, err
			}
			if env.ID != id || renv.ID != id {
				return 0, 0, fmt.Errorf("wire: round trip of pair %d changed its envelope id", i)
			}
			buf = b
			pairs++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(pairs), pairs, nil
}
