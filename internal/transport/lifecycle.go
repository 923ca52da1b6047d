// Connection lifecycle management for TCPClient: bounded per-server
// connection pools with idle reaping and health-check probes, dial
// coalescing (singleflight) with clock-aware jittered exponential backoff,
// and a per-server circuit breaker (closed/open/half-open).
//
// Everything here runs on the client's vtime.Clock: timers, backoff
// windows, breaker cooldowns and the maintenance loop all advance on
// virtual time under a SimClock, and the backoff jitter is counter-hashed
// (splitmix64 over seed, server id and attempt number), so the whole layer
// is deterministic inside the simulation harnesses.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/wire"
)

// ErrServerDown is returned immediately — without dialing or waiting — when
// a server's circuit breaker is open: recent consecutive failures proved
// the server unreachable, and the breaker's cooldown has not yet elapsed.
// It is transient (the breaker half-opens on the clock), so quorum clients
// treat it exactly like a missing reply and promote spares at t=0.
var ErrServerDown = errors.New("transport: server down (circuit breaker open)")

// HealthReporter is implemented by transports that track per-server
// reachability (TCPClient with a breaker-enabled LifecycleConfig). Quorum
// clients consult it at dispatch time to fail known-down access-set members
// instantly instead of burning hedge budget on them.
type HealthReporter interface {
	// ServerDown reports whether a call to id right now would fail fast
	// with ErrServerDown.
	ServerDown(id quorum.ServerID) bool
}

// RPCError is a reply the server answered with: the RPC reached the server
// and came back carrying an application-level error. Kind is the server's
// own transient/permanent classification (wire.ErrKind*), carried on the
// wire, so clients can stop retrying what retrying cannot fix. An RPCError
// is evidence the server is alive: the circuit breaker does not count it.
type RPCError struct {
	Server quorum.ServerID
	Kind   byte
	Msg    string
}

// Error implements error with the same text the stringly path produced.
func (e *RPCError) Error() string { return fmt.Sprintf("server %d: %s", e.Server, e.Msg) }

// Permanent reports the server-side classification; IsPermanent matches it.
func (e *RPCError) Permanent() bool { return e.Kind == wire.ErrKindPermanent }

// IsPermanent reports whether err is classified permanent: retrying the
// call — or re-sampling a quorum around it — cannot succeed (codec
// mismatch, unsupported payload, malformed request). Errors carry the
// classification via a `Permanent() bool` method (see RPCError).
func IsPermanent(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// LifecycleConfig tunes TCPClient's per-server connection lifecycle. The
// zero value preserves the legacy behavior exactly: one connection per
// server, re-dialed eagerly on every failure, no backoff, no breaker, no
// background maintenance.
type LifecycleConfig struct {
	// PoolSize caps the connections kept per server (minimum 1). The pool
	// grows one connection at a time, only when every live connection has a
	// call in flight.
	PoolSize int
	// IdleTimeout, when positive, lets the maintenance loop close pool
	// connections that carried no call for at least this long.
	IdleTimeout time.Duration
	// ProbeEvery, when positive, makes the maintenance loop send a
	// wire.PingRequest health-check frame on every idle pool connection at
	// this period; a probe that fails or times out evicts the connection
	// and counts as a breaker failure.
	ProbeEvery time.Duration
	// ProbeTimeout bounds each health-check probe (default 1s).
	ProbeTimeout time.Duration
	// DialBackoffBase, when positive, enables exponential backoff between
	// redial attempts: after the n-th consecutive dial failure no new dial
	// is attempted for base·2ⁿ⁻¹ (capped at DialBackoffMax, jittered into
	// [d/2, d) by a counter-hashed draw). Calls landing inside the window
	// fail fast with the last dial error.
	DialBackoffBase time.Duration
	// DialBackoffMax caps the backoff window (default 16×base).
	DialBackoffMax time.Duration
	// BreakerThreshold, when positive, enables the per-server circuit
	// breaker: this many consecutive transport-level failures (failed
	// dials, send errors, torn connections, call timeouts — never
	// server-answered RPC errors) trip it open.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls with
	// ErrServerDown before half-opening to admit one trial call (default
	// 1s). The trial's success closes the breaker; its failure re-opens it
	// for another cooldown.
	BreakerCooldown time.Duration
	// Seed feeds the counter-hashed backoff jitter.
	Seed int64
}

// Enabled reports whether any lifecycle feature beyond the legacy
// single-connection behavior is configured.
func (c LifecycleConfig) Enabled() bool {
	return c.PoolSize > 1 || c.IdleTimeout > 0 || c.ProbeEvery > 0 ||
		c.DialBackoffBase > 0 || c.BreakerThreshold > 0
}

// maintenance reports whether a background maintenance loop is needed.
func (c LifecycleConfig) maintenance() bool { return c.IdleTimeout > 0 || c.ProbeEvery > 0 }

func (c LifecycleConfig) poolSize() int {
	if c.PoolSize < 1 {
		return 1
	}
	return c.PoolSize
}

func (c LifecycleConfig) probeTimeout() time.Duration {
	if c.ProbeTimeout > 0 {
		return c.ProbeTimeout
	}
	return time.Second
}

func (c LifecycleConfig) backoffMax() time.Duration {
	if c.DialBackoffMax > 0 {
		return c.DialBackoffMax
	}
	return 16 * c.DialBackoffBase
}

func (c LifecycleConfig) cooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return time.Second
}

// breakerState is the circuit breaker's three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// dialResult is what a coalesced dial delivers to its waiters.
type dialResult struct {
	conn *tcpConn
	err  error
}

// serverState is one server's slice of the client: its connection pool,
// singleflight dial, backoff window and circuit breaker. All fields below
// mu are guarded by it; the pool's connections carry their own lease and
// idle bookkeeping atomically.
type serverState struct {
	c  *TCPClient
	id quorum.ServerID

	mu     sync.Mutex
	closed bool
	conns  []*tcpConn
	rr     uint64 // round-robin cursor over conns

	// Singleflight: at most one dial per server is in flight; racing
	// callers park on a waiter channel and share its outcome.
	dialing bool
	waiters []chan dialResult

	// Backoff: consecutive dial failures widen a window during which
	// callers fail fast with the last dial error instead of re-dialing.
	dialFails    int
	backoffUntil time.Time
	lastDialErr  error

	// Breaker.
	brState    breakerState
	brFails    int // consecutive transport-level failures
	brOpenedAt time.Time
	brProbing  bool // a half-open trial call is in flight
}

// acquire returns a pooled connection to the server, dialing (or joining an
// in-flight dial) when the pool is empty or warrants growth. The returned
// connection is leased; the caller must release it via release().
func (s *serverState) acquire() (*tcpConn, error) {
	lc := &s.c.lifecycle
	now := s.c.clock.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if !s.breakerAdmitLocked(now, lc) {
		s.mu.Unlock()
		s.c.stats.breakerFastFails.Add(1)
		return nil, fmt.Errorf("server %d: %w", s.id, ErrServerDown)
	}
	conn := s.pickLocked(lc)
	if conn != nil {
		conn.lease()
		s.mu.Unlock()
		return conn, nil
	}
	if s.dialing {
		// Singleflight: join the in-flight dial. The dialer counts us
		// under s.mu, so its NoteSend/send pair cannot miss us, and it
		// leases the new connection once on our behalf before publishing
		// (so the maintenance loop cannot reap it in the hand-off gap) —
		// the connection arrives already leased; leasing again here would
		// leak a lease per waiter and pin the connection busy forever.
		ch := make(chan dialResult, 1)
		s.waiters = append(s.waiters, ch)
		s.mu.Unlock()
		s.c.stats.dialsCoalesced.Add(1)
		unpark := s.c.sched.Park()
		r := <-ch
		unpark()
		s.c.sched.NoteRecv()
		if r.err != nil {
			return nil, r.err
		}
		return r.conn, nil
	}
	if lc.DialBackoffBase > 0 && now.Before(s.backoffUntil) {
		// Inside the redial-backoff window. Growth can wait: fall back to
		// an existing connection if the pool has one, else fail fast with
		// the failure that opened the window.
		if len(s.conns) > 0 {
			conn = s.rrLocked()
			conn.lease()
			s.mu.Unlock()
			return conn, nil
		}
		err := s.lastDialErr
		s.mu.Unlock()
		s.c.stats.backoffFastFails.Add(1)
		s.recordNeutral() // release a half-open trial slot, if we held it
		return nil, fmt.Errorf("server %d: redial backoff: %w", s.id, err)
	}
	s.dialing = true
	s.mu.Unlock()
	return s.dial(now)
}

// pickLocked chooses a live pool connection, pruning dead ones. A nil
// return asks the caller to dial: the pool is empty, or every connection
// is busy and the pool may grow.
func (s *serverState) pickLocked(lc *LifecycleConfig) *tcpConn {
	live := s.conns[:0]
	for _, cn := range s.conns {
		if !cn.isClosed() {
			live = append(live, cn)
		}
	}
	s.conns = live
	if len(s.conns) == 0 {
		return nil
	}
	if len(s.conns) < lc.poolSize() && !s.dialing && s.allBusyLocked() {
		return nil
	}
	return s.rrLocked()
}

func (s *serverState) rrLocked() *tcpConn {
	s.rr++
	return s.conns[int(s.rr%uint64(len(s.conns)))]
}

func (s *serverState) allBusyLocked() bool {
	for _, cn := range s.conns {
		if cn.load() == 0 {
			return false
		}
	}
	return true
}

// dial performs the singleflight dial this state elected the caller to run,
// publishes the outcome to every coalesced waiter, and maintains the
// backoff window and breaker.
func (s *serverState) dial(now time.Time) (*tcpConn, error) {
	c := s.c
	raw, err := c.dial(s.id, c.addrs[s.id])
	var conn *tcpConn
	if err == nil {
		c.stats.conns.Add(1)
		conn = newTCPConn(raw, c.codec, &c.stats, c.sched, c.codecReg.open(), &c.codecReg)
		conn.touch(now.UnixNano())
	}

	s.mu.Lock()
	if err == nil && s.closed {
		// The client closed while we dialed; the pool no longer exists.
		conn.close()
		conn, err = nil, ErrClosed
	}
	s.dialing = false
	waiters := s.waiters
	s.waiters = nil
	if err == nil {
		s.conns = append(s.conns, conn)
		s.dialFails = 0
		s.backoffUntil = time.Time{}
		s.lastDialErr = nil
		conn.lease() // the dialer's own lease; released by its Call
		for range waiters {
			// One lease per waiter, taken on its behalf before the hand-off
			// (the waiter returns the conn without leasing again).
			conn.lease()
		}
	} else {
		s.dialFails++
		s.lastDialErr = err
		if d := s.backoffDelayLocked(); d > 0 {
			s.backoffUntil = now.Add(d)
		}
	}
	s.mu.Unlock()

	werr := err
	if werr != nil {
		werr = fmt.Errorf("server %d: %w", s.id, werr)
	}
	for _, ch := range waiters {
		c.sched.NoteSend()
		ch <- dialResult{conn: conn, err: werr}
	}
	if err != nil {
		s.recordFailure()
		return nil, fmt.Errorf("server %d: %w", s.id, err)
	}
	return conn, nil
}

// backoffDelayLocked computes the next backoff window: exponential in the
// consecutive-failure count, capped, and jittered into [d/2, d) by a
// counter-hashed draw (seed × server × attempt), so two runs from one seed
// replay the same redial schedule.
func (s *serverState) backoffDelayLocked() time.Duration {
	lc := &s.c.lifecycle
	base := lc.DialBackoffBase
	if base <= 0 {
		return 0
	}
	max := lc.backoffMax()
	shift := s.dialFails - 1
	if shift > 20 {
		shift = 20
	}
	d := base << shift
	if d <= 0 || d > max {
		d = max
	}
	h := splitmix64(uint64(lc.Seed) ^ 0x9E3779B97F4A7C15 ^ (uint64(s.id)+1)<<32 ^ uint64(s.dialFails))
	return d/2 + time.Duration(unitFloat(h)*float64(d/2))
}

// breakerAdmitLocked gates a call on the breaker, transitioning open →
// half-open when the cooldown has elapsed on the clock. In half-open state
// exactly one trial call is admitted at a time.
func (s *serverState) breakerAdmitLocked(now time.Time, lc *LifecycleConfig) bool {
	if lc.BreakerThreshold <= 0 {
		return true
	}
	switch s.brState {
	case breakerOpen:
		if now.Sub(s.brOpenedAt) < lc.cooldown() {
			return false
		}
		s.brState = breakerHalfOpen
		s.brProbing = true
		s.c.stats.breakerHalfOpens.Add(1)
		return true
	case breakerHalfOpen:
		if s.brProbing {
			return false
		}
		s.brProbing = true
		return true
	default:
		return true
	}
}

// recordFailure counts one transport-level failure (failed dial, send
// error, torn connection, call timeout) against the breaker.
func (s *serverState) recordFailure() {
	lc := &s.c.lifecycle
	if lc.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	s.brFails++
	switch s.brState {
	case breakerClosed:
		if s.brFails >= lc.BreakerThreshold {
			s.brState = breakerOpen
			s.brOpenedAt = s.c.clock.Now()
			s.c.stats.breakerTrips.Add(1)
		}
	case breakerHalfOpen:
		s.brState = breakerOpen
		s.brOpenedAt = s.c.clock.Now()
		s.brProbing = false
		s.c.stats.breakerTrips.Add(1)
	}
	s.mu.Unlock()
}

// recordSuccess counts a transport-level success: the server answered
// (even with an application error), so consecutive-failure tracking resets
// and a half-open trial closes the breaker.
func (s *serverState) recordSuccess() {
	lc := &s.c.lifecycle
	if lc.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	s.brFails = 0
	if s.brState == breakerHalfOpen {
		s.brState = breakerClosed
		s.brProbing = false
		s.c.stats.breakerCloses.Add(1)
	}
	s.mu.Unlock()
}

// recordNeutral resolves a call that proved nothing about the server
// (context cancellation, backoff fast-fail): it releases a held half-open
// trial slot without moving the state machine.
func (s *serverState) recordNeutral() {
	lc := &s.c.lifecycle
	if lc.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	s.brProbing = false
	s.mu.Unlock()
}

// release returns a leased connection to the pool, stamping its idle clock.
func (s *serverState) release(conn *tcpConn) {
	if s.c.lifecycle.maintenance() {
		conn.touch(s.c.clock.Now().UnixNano())
	}
	conn.unlease()
}

// evict removes a failed connection from the pool and closes it.
func (s *serverState) evict(conn *tcpConn) {
	s.mu.Lock()
	for i, cn := range s.conns {
		if cn == conn {
			s.conns = append(s.conns[:i], s.conns[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	conn.close()
}

// down reports whether a call to the server right now would fail fast with
// ErrServerDown (TCPClient.ServerDown delegates here).
func (s *serverState) down(now time.Time, lc *LifecycleConfig) bool {
	if lc.BreakerThreshold <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.brState {
	case breakerOpen:
		// After the cooldown the next call is admitted as the half-open
		// trial, so the server no longer counts as down.
		return now.Sub(s.brOpenedAt) < lc.cooldown()
	case breakerHalfOpen:
		return s.brProbing
	default:
		return false
	}
}

// closeAll tears the state down: subsequent acquires fail, pooled
// connections close. In-flight dials observe closed at publish time.
func (s *serverState) closeAll() error {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	var first error
	for _, cn := range conns {
		if err := cn.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// maintainLoop is the client's background maintenance goroutine: on every
// tick of the clock it reaps idle connections past IdleTimeout and sends
// health-check probe frames on the idle survivors. Runs only when the
// lifecycle config enables either feature; stops when the client closes.
func (c *TCPClient) maintainLoop() {
	defer func() {
		c.sched.NoteSend() // pairs with Close's wait on maintStopped
		close(c.maintStopped)
	}()
	tick := c.lifecycle.ProbeEvery
	if tick <= 0 || (c.lifecycle.IdleTimeout > 0 && c.lifecycle.IdleTimeout < tick) {
		tick = c.lifecycle.IdleTimeout
	}
	for {
		t := c.clock.NewTimer(tick)
		unpark := c.sched.Park()
		select {
		case <-t.C:
			unpark()
			c.sched.NoteRecv()
			c.maintain()
		case <-c.maintDone:
			unpark()
			c.sched.NoteRecv()
			t.Stop()
			return
		}
	}
}

// maintain runs one maintenance pass over every server's pool.
func (c *TCPClient) maintain() {
	now := c.clock.Now()
	c.mu.Lock()
	states := make([]*serverState, 0, len(c.states))
	for _, s := range c.states {
		states = append(states, s)
	}
	c.mu.Unlock()
	for _, s := range states {
		s.maintain(now)
	}
}

// maintain reaps this server's idle-expired connections and probes the
// idle survivors with ping frames (concurrently; the pass waits for them).
func (s *serverState) maintain(now time.Time) {
	lc := &s.c.lifecycle
	var reap, probe []*tcpConn
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	keep := s.conns[:0]
	for _, cn := range s.conns {
		switch {
		case cn.isClosed():
		case lc.IdleTimeout > 0 && cn.load() == 0 && now.UnixNano()-cn.idleSince() >= int64(lc.IdleTimeout):
			reap = append(reap, cn)
		default:
			if lc.ProbeEvery > 0 && cn.load() == 0 {
				cn.lease() // pin against concurrent reap decisions
				probe = append(probe, cn)
			}
			keep = append(keep, cn)
		}
	}
	s.conns = keep
	s.mu.Unlock()
	for _, cn := range reap {
		s.c.stats.connsReaped.Add(1)
		cn.close()
	}
	if len(probe) == 0 {
		return
	}
	wg := s.c.newWaitGroup()
	for _, cn := range probe {
		cn := cn
		wg.Add(1)
		s.c.sched.Go(func() {
			defer wg.Done()
			defer cn.unlease()
			s.probeConn(cn)
		})
	}
	wg.Wait()
}

// probeConn sends one health-check ping on the connection and waits out the
// probe timeout. Failures evict the connection and count against the
// breaker; replies (any reply — the server is alive) count as successes.
func (s *serverState) probeConn(cn *tcpConn) {
	c := s.c
	c.stats.probesSent.Add(1)
	id := c.nextID.Add(1)
	ch, err := cn.send(id, wire.PingRequest{})
	if err != nil {
		c.stats.probeFailures.Add(1)
		s.evict(cn)
		s.recordFailure()
		return
	}
	t := c.clock.NewTimer(c.lifecycle.probeTimeout())
	defer t.Stop()
	unpark := c.sched.Park()
	select {
	case _, ok := <-ch:
		unpark()
		c.sched.NoteRecv()
		if !ok {
			c.stats.probeFailures.Add(1)
			s.evict(cn)
			s.recordFailure()
			return
		}
		s.recordSuccess()
	case <-t.C:
		unpark()
		c.sched.NoteRecv()
		if !cn.abandon(id) {
			// The reply raced the timer into the buffered channel; consume
			// its tracked send and honor it.
			_, ok := <-ch
			c.sched.NoteRecv()
			if ok {
				s.recordSuccess()
				return
			}
		}
		c.stats.probeFailures.Add(1)
		s.evict(cn)
		s.recordFailure()
	}
}
