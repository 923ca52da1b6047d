package register

import (
	"context"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/vtime"
)

// This file implements the straggler-tolerant access engine shared by Read
// and Write: it dispatches one RPC per access-set member, promotes spare
// servers when a member fails or a hedge delay elapses, and returns as soon
// as the caller's completion rule is decidable, leaving stragglers to a
// background drain that can never leak goroutines (the reply channel is
// buffered for every call that can ever be dispatched, so no call's
// delivery ever blocks, and every worker terminates when its transport
// call returns).
//
// Promotion preserves the attempt-level ε argument documented on
// RetryingClient and quorum.SpareSampler: a spare is dispatched only when a
// member has observably failed or when a hedge timer — independent of server
// identity — fires, so the access set that completes is the strategy's
// sample conditioned on liveness, the same conditioning a full re-sample
// performs, at a fraction of the latency.
//
// A member call runs in one of three regimes (see dispatch):
//
//   - inline: under the wall clock, a call the transport can finish
//     without waiting (transport.Immediate — a MemNetwork with no latency,
//     hook or capacity cap on the destination) runs on the issuing
//     goroutine, and its reply is already buffered when the gather loop
//     looks for it. No goroutine, channel handoff or timer is involved.
//   - pooled: under the wall clock, every other call (TCP, injected
//     latency, link hooks, capacity caps) goes to a small pool of
//     idle-retiring worker goroutines, so a straggler can be hedged around
//     while it waits; steady-state operations spawn no goroutines.
//   - SimClock: under a vtime.SimClock, every call runs as a registered
//     scheduler worker (or synchronously with Options.InlineDispatch) and
//     the gather loop parks around its select, so hedge firing is part of
//     the deterministic virtual-time order. All timers and spawns go
//     through the client's vtime.Clock.

// callReply carries one server's response through the gather loop. lat is
// the call's round-trip latency, measured only when adaptive hedging needs
// it.
type callReply struct {
	id   quorum.ServerID
	resp any
	err  error
	lat  time.Duration
}

// dispatchJob is one transport call handed to a worker.
type dispatchJob struct {
	ctx   context.Context
	id    quorum.ServerID
	req   any
	ch    chan<- callReply
	timed bool
}

// poolIdleRetire is how long an idle wall-mode dispatch worker lingers for
// the next job before exiting. Long enough to serve back-to-back
// operations without spawning, short enough that a quiescent client leaves
// no goroutines behind (the leak regressions poll well past this).
const poolIdleRetire = 100 * time.Millisecond

// runJob executes one transport call and delivers the reply. The reply
// channel is buffered for every call that can ever be dispatched, so the
// send never blocks; under a SimClock it is a tracked message.
func (c *cell) runJob(j dispatchJob) {
	var start time.Time
	if j.timed {
		start = c.clock.Now()
	}
	resp, err := c.opts.Transport.Call(j.ctx, j.id, j.req)
	c.deliver(j, start, resp, err)
}

// deliver sends one call's reply, timing it from start when adaptive
// hedging needs the latency.
func (c *cell) deliver(j dispatchJob, start time.Time, resp any, err error) {
	r := callReply{id: j.id, resp: resp, err: err}
	if j.timed {
		r.lat = c.clock.Since(start)
	}
	if c.sched != nil {
		c.sched.NoteSend()
	}
	j.ch <- r
}

// dispatch issues one member call in the regime its clock and transport
// allow (see the file comment): under a SimClock, as a registered
// scheduler worker or synchronously with InlineDispatch; under the wall
// clock, on the issuing goroutine when the transport accepts it through
// CallNow, otherwise on an idle pooled goroutine (spawning a fresh one
// only when none is parked on the jobs channel — after the first
// operation warms the pool, steady-state reads and writes spawn nothing).
// Every regime delivers exactly one reply per call into ch.
func (c *cell) dispatch(ctx context.Context, id quorum.ServerID, req any, ch chan<- callReply, timed bool) {
	if c.health != nil && c.health.ServerDown(id) {
		// The transport's circuit breaker already proved this member
		// unreachable: deliver the failure at t=0 so the gather promotes a
		// spare immediately instead of burning hedge budget. The check sits
		// at dispatch — the hedge/promote logic never consults identity, so
		// the ε argument (promotion conditioned on observable failure) is
		// untouched.
		c.statServerDown.Add(1)
		if c.sched != nil {
			c.sched.NoteSend()
		}
		ch <- callReply{id: id, err: transport.ErrServerDown}
		return
	}
	j := dispatchJob{ctx: ctx, id: id, req: req, ch: ch, timed: timed}
	if c.sched != nil {
		if c.opts.InlineDispatch {
			// The reply channel is buffered for the full access set, so a
			// synchronous runJob can never block on delivery.
			c.runJob(j)
			return
		}
		c.sched.Go(func() { c.runJob(j) })
		return
	}
	if c.imm != nil {
		// A call that cannot wait gains nothing from a worker: a hedge
		// could never fire before it returns. Run it here; the transport
		// declines (without side effects) any call that might wait.
		var start time.Time
		if timed {
			start = c.clock.Now()
		}
		if resp, err, ok := c.imm.CallNow(ctx, id, req); ok {
			c.deliver(j, start, resp, err)
			return
		}
	}
	select {
	case c.jobs <- j:
	default:
		//pqslint:allow rawgo wall-clock-only fallback: this branch runs iff c.sched is nil, i.e. there is no SimClock to enroll the worker with
		go c.poolWorker(j)
	}
}

// poolWorker runs jobs until it has been idle for poolIdleRetire. The jobs
// channel is unbuffered, so a handoff only succeeds while a worker is
// committed to receiving — a worker that chose to retire can never strand
// a job.
func (c *cell) poolWorker(j dispatchJob) {
	idle := c.clock.NewTimer(poolIdleRetire)
	defer idle.Stop()
	for {
		c.runJob(j)
		idle.Reset(poolIdleRetire)
		select {
		case j = <-c.jobs:
		case <-idle.C:
			return
		}
	}
}

// goWorker runs fn on a goroutine the clock's scheduler knows about.
func (c *cell) goWorker(fn func()) {
	if c.sched != nil {
		c.sched.Go(fn)
		return
	}
	//pqslint:allow rawgo wall-clock-only fallback: this branch runs iff c.sched is nil, i.e. there is no SimClock to enroll the worker with
	go fn()
}

// noopUnpark is park's no-op under the wall clock.
func noopUnpark() {}

// park marks the caller blocked for the SimClock quiescence detector; the
// returned function must run as soon as the blocking select returns.
func (c *cell) park() func() {
	if c.sched == nil {
		return noopUnpark
	}
	return c.sched.Park()
}

// noteRecv records consumption of a tracked message (a reply or a hedge
// fire) under a SimClock.
func (c *cell) noteRecv() {
	if c.sched != nil {
		c.sched.NoteRecv()
	}
}

// gatherSpec parameterizes one gather run.
type gatherSpec struct {
	req    any
	quorum []quorum.ServerID
	spares []quorum.ServerID
	// onOK consumes a successful reply in arrival order (called from the
	// gather goroutine, so no locking is needed). Returning a non-nil error
	// reclassifies the reply as a failure, triggering spare promotion.
	onOK func(id quorum.ServerID, resp any) error
	// decided, when non-nil, is checked after every accepted reply; a true
	// return completes the gather immediately, leaving outstanding calls to
	// the drain.
	decided func(ok, outstanding int) bool
}

// gatherOutcome reports a gather run.
type gatherOutcome struct {
	ok       int
	errs     map[quorum.ServerID]error // failed members; nil until the first failure
	promoted int
	early    bool
	leftover int
	ctxErr   error
	ch       <-chan callReply
}

// gather runs the access engine. It returns when the completion rule is
// decidable, when every dispatched call has resolved, or when ctx is done.
func (c *cell) gather(ctx context.Context, spec gatherSpec) gatherOutcome {
	total := len(spec.quorum) + len(spec.spares)
	ch := make(chan callReply, total)
	timed := c.opts.AdaptiveHedge
	for _, id := range spec.quorum {
		c.dispatch(ctx, id, spec.req, ch, timed)
	}
	out := gatherOutcome{ch: ch}
	outstanding := len(spec.quorum)
	next := 0
	promote := func() bool {
		if next >= len(spec.spares) {
			return false
		}
		c.dispatch(ctx, spec.spares[next], spec.req, ch, timed)
		next++
		outstanding++
		out.promoted++
		c.statPromoted.Add(1)
		return true
	}
	// The hedge delay is fixed for the whole operation: with AdaptiveHedge
	// it is the estimator's current quantile, a function of pooled latency
	// history from past operations only — never of this operation's access
	// set — so hedge firing stays independent of server identity.
	hedgeDelay := c.hedgeDelay()
	var hedge *vtime.Timer
	var hedgeC <-chan time.Time
	if hedgeDelay > 0 && len(spec.spares) > 0 {
		hedge = c.clock.NewTimer(hedgeDelay)
		defer hedge.Stop()
		hedgeC = hedge.C
	}
	// handle consumes one reply; a true return means the completion rule
	// decided and the gather is done.
	handle := func(r callReply) bool {
		outstanding--
		if r.err == nil {
			if timed {
				c.lat.observe(r.id, r.lat)
			}
			if spec.onOK != nil {
				r.err = spec.onOK(r.id, r.resp)
			}
		}
		if r.err != nil {
			if out.errs == nil {
				out.errs = make(map[quorum.ServerID]error)
			}
			out.errs[r.id] = r.err
			promote()
			return false
		}
		out.ok++
		if spec.decided != nil && spec.decided(out.ok, outstanding) {
			out.early = outstanding > 0
			out.leftover = outstanding
			if out.early {
				c.statEarly.Add(1)
			}
			return true
		}
		return false
	}
	// Replies already buffered are consumed without a select or a park.
	// Inline calls — every call under InlineDispatch, and under the wall
	// clock every call the transport ran through CallNow, including the
	// ones a promote() just issued — have buffered theirs before the loop
	// looks. Under a SimClock without InlineDispatch the loop always parks,
	// so the virtual-time order stays exactly as it was.
	tryBuffered := c.sched == nil || c.opts.InlineDispatch
	for outstanding > 0 {
		if tryBuffered {
			select {
			case r := <-ch:
				c.noteRecv()
				if handle(r) {
					return out
				}
				continue
			default:
			}
		}
		unpark := c.park()
		select {
		case r := <-ch:
			unpark()
			c.noteRecv()
			if handle(r) {
				return out
			}
		case <-hedgeC:
			unpark()
			c.noteRecv()
			if promote() {
				hedge.Reset(hedgeDelay)
			} else {
				hedgeC = nil // spares exhausted; stop hedging
			}
		case <-ctx.Done():
			unpark()
			out.leftover = outstanding
			out.ctxErr = ctx.Err()
			return out
		}
	}
	return out
}

// drain consumes the replies still in flight when a gather completed early,
// from a background worker tracked by WaitDrained. onLate, when non-nil,
// sees each late reply (successful or failed) in arrival order. The late
// calls run on the operation's context: a caller that cancels it after the
// operation returns also aborts the stragglers (normal cancellation
// semantics), in which case there is nothing to drain but errors — only
// successful late replies count toward AccessStats.LateReplies.
//
// Under the wall clock with no late-reply hook, when every late reply is
// already buffered (the usual case once calls run inline), there is
// nothing to wait for: drain consumes them synchronously instead of
// spawning a worker.
//
// Late replies deliberately do NOT feed the adaptive-hedge latency
// estimator: the estimator measures the population of replies that
// complete operations, which is what the hedge delay competes with. A
// straggler the hedge routed around is the tail being avoided — folding it
// back in would drag the delay toward that tail until hedging stopped
// firing at all. The loop stays self-correcting in the other direction
// because a gather can never finish before quorum-size replies arrive: if
// the whole cluster slows down, the in-gather samples slow down with it
// and the delay rises.
func (c *cell) drain(out gatherOutcome, onLate func(callReply)) {
	if out.leftover == 0 {
		return
	}
	if c.sched == nil && onLate == nil && len(out.ch) == out.leftover {
		for i := 0; i < out.leftover; i++ {
			if r := <-out.ch; r.err == nil {
				c.statLate.Add(1)
			}
		}
		return
	}
	c.drainWG.Add(1)
	c.goWorker(func() {
		defer c.drainWG.Done()
		for i := 0; i < out.leftover; i++ {
			unpark := c.park()
			r := <-out.ch
			unpark()
			c.noteRecv()
			if r.err == nil {
				c.statLate.Add(1)
			}
			if onLate != nil {
				onLate(r)
			}
		}
	})
}

// pickWithSpares samples one access set plus the configured number of
// spares under the client's strategy. Spare-free picks from an
// InplacePicker-capable system run through the client's buffer freelist, so
// steady-state sampling performs zero allocations; each operation returns
// its buffer with recyclePick when it completes.
func (c *cell) pickWithSpares() (q, spares []quorum.ServerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opts.Spares > 0 {
		if ss, ok := c.opts.System.(quorum.SpareSampler); ok {
			return ss.PickWithSpares(c.rng, c.opts.Spares)
		}
	}
	if ip, ok := c.opts.System.(quorum.InplacePicker); ok {
		return ip.PickInto(c.rng, c.takeBufLocked()), nil
	}
	return c.opts.System.Pick(c.rng), nil
}

// maxPickFree bounds the sampling-buffer freelist; beyond the steady
// concurrency level extra buffers are garbage, not cache.
const maxPickFree = 8

// takeBufLocked pops a sampling buffer from the freelist. c.mu must be held.
func (c *cell) takeBufLocked() []quorum.ServerID {
	if n := len(c.pickFree); n > 0 {
		buf := c.pickFree[n-1]
		c.pickFree = c.pickFree[:n-1]
		return buf[:0]
	}
	return make([]quorum.ServerID, 0, c.opts.System.QuorumSize())
}

// recyclePick returns a completed operation's access-set buffer to the
// freelist. The buffer never escapes the operation: Read and Write copy it
// into the result's Quorum field, so recycling cannot rewrite anything a
// caller holds.
func (c *cell) recyclePick(q []quorum.ServerID) {
	if cap(q) == 0 {
		return
	}
	c.mu.Lock()
	if len(c.pickFree) < maxPickFree {
		c.pickFree = append(c.pickFree, q)
	}
	c.mu.Unlock()
}

// spareCapable reports whether sys can supply spares.
func spareCapable(sys quorum.System) bool {
	_, ok := sys.(quorum.SpareSampler)
	return ok
}

// AccessStats counts straggler-tolerance events over a client's lifetime.
// All counters are cumulative and safe to read concurrently via Stats.
type AccessStats struct {
	// SparesPromoted is the number of spare servers dispatched, whether
	// triggered by member failure or by hedge-delay expiry.
	SparesPromoted uint64
	// EarlyCompletions counts operations that returned at their completion
	// threshold while calls were still outstanding.
	EarlyCompletions uint64
	// LateReplies counts successful replies delivered to the background
	// drain after the operation had already returned. Calls aborted by the
	// caller cancelling the operation's context are not counted.
	LateReplies uint64
	// LateRepairs counts read-repair writes pushed to servers whose replies
	// arrived after an eager read returned.
	LateRepairs uint64
	// ServerDownFastFails counts access-set members failed at dispatch
	// because the transport's circuit breaker reported them down
	// (transport.ErrServerDown): each such member's slot fails at t=0,
	// promoting a spare immediately instead of waiting out the hedge timer.
	ServerDownFastFails uint64

	// LatencySamples, SRTT, RTTVar and HedgeDelay describe the adaptive-
	// hedge latency estimator (zero unless Options.AdaptiveHedge is set):
	// the number of reply latencies observed, the pooled latency EWMA and
	// deviation EWMA, and the hedge delay currently in effect
	// (SRTT + HedgeDeviations·RTTVAR once warmed up).
	LatencySamples uint64
	SRTT           time.Duration
	RTTVar         time.Duration
	HedgeDelay     time.Duration
}

// Stats returns a snapshot of the client's straggler-tolerance counters.
func (c *cell) Stats() AccessStats {
	s := AccessStats{
		SparesPromoted:      c.statPromoted.Load(),
		EarlyCompletions:    c.statEarly.Load(),
		LateReplies:         c.statLate.Load(),
		LateRepairs:         c.statLateRepairs.Load(),
		ServerDownFastFails: c.statServerDown.Load(),
	}
	if c.opts.AdaptiveHedge {
		s.LatencySamples, s.SRTT, s.RTTVar = c.lat.snapshot()
		s.HedgeDelay = c.hedgeDelay()
	}
	return s
}

// WaitDrained blocks until every background drain spawned by completed
// operations has finished. Call it with no operations in flight (e.g. at
// shutdown, or in tests that assert on Stats or goroutine counts).
func (c *cell) WaitDrained() { c.drainWG.Wait() }

// counters live on Client (register.go); typed here for proximity to the
// engine that updates them.
type accessCounters struct {
	statPromoted    atomic.Uint64
	statEarly       atomic.Uint64
	statLate        atomic.Uint64
	statLateRepairs atomic.Uint64
	statServerDown  atomic.Uint64
}
