// Package transport connects quorum clients to replica servers.
//
// Two implementations are provided. MemNetwork is an in-process simulated
// network with injectable latency, message loss, partitions and server
// crashes; it is the substrate for the experiment harness, exactly as the
// paper's analysis assumes an abstract message-passing system. TCPClient and
// TCPServer (tcp.go) carry the same messages over real sockets for
// deployments.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
)

// Common transport errors. Callers match them with errors.Is.
var (
	// ErrUnknownServer indicates a call to a server id with no registered
	// handler or address.
	ErrUnknownServer = errors.New("transport: unknown server")
	// ErrCrashed indicates the destination server is crashed (simulated).
	ErrCrashed = errors.New("transport: server crashed")
	// ErrDropped indicates the simulated network lost the request or reply.
	ErrDropped = errors.New("transport: message dropped")
	// ErrPartitioned indicates the caller and destination are in different
	// partition groups.
	ErrPartitioned = errors.New("transport: network partitioned")
	// ErrClosed indicates the transport has been closed.
	ErrClosed = errors.New("transport: closed")
)

// Handler is the server side of the transport: replicas implement it.
type Handler interface {
	Handle(ctx context.Context, req any) (any, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, req any) (any, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, req any) (any, error) { return f(ctx, req) }

// Transport is the client side: it delivers one request to one server and
// returns its response.
type Transport interface {
	Call(ctx context.Context, to quorum.ServerID, req any) (any, error)
}

// ClientSource is the source id MemNetwork attributes to direct callers
// (clients) that did not tag their context with WithSource. Server-to-server
// traffic (e.g. diffusion) tags its calls so per-link fault hooks can tell
// links apart.
const ClientSource quorum.ServerID = -1

// sourceKey is the context key carrying a call's source id.
type sourceKey struct{}

// WithSource returns a context whose MemNetwork calls are attributed to the
// given source server (used by server-initiated traffic such as gossip, so
// fault hooks see true per-link identities).
func WithSource(ctx context.Context, from quorum.ServerID) context.Context {
	return context.WithValue(ctx, sourceKey{}, from)
}

// SourceFromContext returns the source id attached by WithSource, or
// ClientSource when the context carries none.
func SourceFromContext(ctx context.Context) quorum.ServerID {
	if v, ok := ctx.Value(sourceKey{}).(quorum.ServerID); ok {
		return v
	}
	return ClientSource
}

// CallFault is a LinkHook's verdict on one call. The zero value delivers the
// call untouched. Effects compose in field order: a dropped call never
// reaches the server; a duplicated call is delivered twice (the second
// reply is discarded, exercising idempotency); Delay postpones delivery —
// with concurrent calls in flight on a link this lets later calls overtake
// earlier ones (reordering), while a sequential caller observes only the
// added latency and shuffled reply arrival across its access set;
// ReplaceReq substitutes the delivered request (frame corruption);
// MutateReply rewrites the reply (or error) on the way back.
type CallFault struct {
	Drop        bool
	Duplicate   bool
	Delay       time.Duration
	ReplaceReq  any
	MutateReply func(resp any, err error) (any, error)
}

// LinkHook intercepts every MemNetwork call on its way to a server. It is
// consulted after partition and crash checks and before the built-in drop
// and latency simulation, once per call, with the caller's source id (a
// server id for WithSource-tagged traffic, ClientSource otherwise).
// Implementations must be safe for concurrent use; determinism is the
// hook's responsibility (see internal/chaos for a seed-deterministic one).
type LinkHook interface {
	FilterCall(from, to quorum.ServerID, req any) CallFault
}

// MemNetwork is a simulated network hosting any number of in-process
// servers. The zero value is not usable; construct with NewMemNetwork.
// All configuration methods are safe for concurrent use with Call.
type MemNetwork struct {
	mu        sync.RWMutex
	handlers  map[quorum.ServerID]Handler
	crashed   map[quorum.ServerID]bool
	groups    map[quorum.ServerID]int // partition group per server; default 0
	dropProb  float64
	minLat    time.Duration
	maxLat    time.Duration
	perServer map[quorum.ServerID]latRange // overrides minLat/maxLat per server
	callGroup int                          // partition group of direct Call users (clients)

	// hook, when non-nil, intercepts every call (fault injection; see
	// LinkHook).
	hook LinkHook

	// sems, when non-empty, caps concurrent in-service calls per server
	// (see SetServerConcurrency): a call holds one slot of its
	// destination's semaphore across the simulated latency and the handler,
	// so latency becomes service time and each server gets a finite
	// throughput ceiling.
	sems map[quorum.ServerID]chan struct{}

	// clock supplies simulated-latency sleeps and fault delays. The wall
	// clock by default; the sim and chaos harnesses install a
	// vtime.SimClock so latency becomes virtual (instant to execute,
	// deterministic to replay). See SetClock.
	clock vtime.Clock

	// callSeq holds one counter per destination. Both the built-in drop
	// decision and the latency draw hash (seed, destination,
	// per-destination call count), so a run whose per-destination call
	// sequence is deterministic — sequential client operations, as in the
	// sim and chaos harnesses — replays its drop pattern AND its latency
	// schedule exactly from the seed, even though the calls themselves are
	// dispatched concurrently. (Which servers an operation calls never
	// depends on reply arrival order, only on the client's own seeded
	// sampling, so the per-destination counts are scheduling-independent.)
	// Counter-hashing replaced the PR 2 pooled-PRNG latency draws: it is
	// lock-free AND deterministic, which virtual-time hedging requires —
	// under a SimClock, latency decides which replies a hedged read
	// collects, so it must replay from the seed like drops always have.
	callSeq map[quorum.ServerID]*atomic.Uint64

	seed uint64
}

// latRange is a per-server latency override.
type latRange struct {
	min, max time.Duration
}

// NewMemNetwork returns an empty simulated network. seed fixes the fault
// randomness so that experiments are reproducible.
func NewMemNetwork(seed int64) *MemNetwork {
	return &MemNetwork{
		handlers: make(map[quorum.ServerID]Handler),
		crashed:  make(map[quorum.ServerID]bool),
		groups:   make(map[quorum.ServerID]int),
		callSeq:  make(map[quorum.ServerID]*atomic.Uint64),
		seed:     uint64(seed),
		clock:    vtime.Wall(),
	}
}

// SetClock installs the time source for simulated latency and fault
// delays (nil restores the wall clock). Install before traffic flows; the
// harnesses set it once at cluster construction.
func (n *MemNetwork) SetClock(clk vtime.Clock) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clock = vtime.Or(clk)
}

// splitmix64 is the standard 64-bit finalizer used to decorrelate the
// per-call decision words derived from consecutive sequence numbers.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Register attaches a server handler under the given id, replacing any
// previous registration. Re-registering a departed id (see Deregister)
// models a server rejoining the membership.
//
// Handler contract: while no delay is configured for the server (no
// simulated latency, no LinkHook, no concurrency cap), CallNow runs h on
// the caller's goroutine — the client's own, inside its gather loop — so h
// must not block. Every handler in this repository complies; a handler
// that sleeps (replica.Delayed) belongs behind a TCP server or a
// configured latency, where calls go through a worker.
func (n *MemNetwork) Register(id quorum.ServerID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
	if n.callSeq[id] == nil {
		n.callSeq[id] = new(atomic.Uint64)
	}
}

// Deregister removes a server from the membership: subsequent calls to it
// fail with ErrUnknownServer, exactly as if the id had never been
// registered — its crash flag, partition group and latency override are
// forgotten too, so a later Register rejoins a genuinely fresh member.
// Together with Register it models mid-run membership churn (leave/join).
// The call-sequence counter for the id is retained so a rejoin does not
// replay the departed server's fault pattern.
func (n *MemNetwork) Deregister(id quorum.ServerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, id)
	delete(n.crashed, id)
	delete(n.groups, id)
	delete(n.perServer, id)
}

// SetLinkHook installs (or, with nil, removes) the fault-injection hook
// consulted on every call. See LinkHook.
func (n *MemNetwork) SetLinkHook(h LinkHook) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hook = h
}

// Crash marks a server as crashed: calls to it fail with ErrCrashed.
func (n *MemNetwork) Crash(id quorum.ServerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Recover clears a server's crashed state.
func (n *MemNetwork) Recover(id quorum.ServerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// CrashedCount returns the number of currently crashed servers.
func (n *MemNetwork) CrashedCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.crashed)
}

// SetDropProb sets the probability that any single call is lost.
func (n *MemNetwork) SetDropProb(p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("transport: drop probability %v outside [0,1]", p))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropProb = p
}

// SetLatency sets the uniform per-call latency range. Zero disables
// simulated delay.
func (n *MemNetwork) SetLatency(min, max time.Duration) {
	if min < 0 || max < min {
		panic("transport: invalid latency range")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.minLat, n.maxLat = min, max
}

// SetServerLatency overrides the per-call latency range for one server,
// making it a straggler (or a fast path) relative to SetLatency's global
// range. A zero max restores the global range for that server.
func (n *MemNetwork) SetServerLatency(id quorum.ServerID, min, max time.Duration) {
	if min < 0 || max < min {
		panic("transport: invalid latency range")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.perServer == nil {
		n.perServer = make(map[quorum.ServerID]latRange)
	}
	if max == 0 {
		delete(n.perServer, id)
		return
	}
	n.perServer[id] = latRange{min: min, max: max}
}

// SetServerConcurrency caps every currently registered server at k calls
// in service at once (0 removes the cap). While the cap is in place a call
// occupies one of its destination's k slots across the simulated latency
// AND the handler, so the latency range set with SetLatency acts as per-call
// service time and each server's throughput ceiling is k/latency calls per
// second. This is the capacity model behind the multi-cell scaling
// benchmarks: without it an in-memory server is infinitely parallel and
// adding cells adds no measurable capacity.
func (n *MemNetwork) SetServerConcurrency(k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if k <= 0 {
		n.sems = nil
		return
	}
	n.sems = make(map[quorum.ServerID]chan struct{}, len(n.handlers))
	for id := range n.handlers {
		n.sems[id] = make(chan struct{}, k)
	}
}

// SetPartition assigns servers to partition groups. Calls between different
// groups fail with ErrPartitioned. Servers not mentioned stay in group 0.
func (n *MemNetwork) SetPartition(groups map[quorum.ServerID]int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = make(map[quorum.ServerID]int, len(groups))
	for id, g := range groups {
		n.groups[id] = g
	}
}

// ClearPartition heals all partitions.
func (n *MemNetwork) ClearPartition() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = make(map[quorum.ServerID]int)
}

// SetCallerGroup places direct callers of Call (clients) into a partition
// group; the default group is 0.
func (n *MemNetwork) SetCallerGroup(g int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.callGroup = g
}

// Immediate is an optional Transport capability: a transport that can
// tell, before starting a call, that the call will finish without waiting
// (no simulated delay, no queueing, no I/O) implements it, and the gather
// engine (internal/register) then runs that call on the issuing goroutine
// instead of handing it to a worker. CallNow either performs the call and
// returns exactly what Call would have returned (ok == true), or does
// nothing at all and reports ok == false, in which case the caller issues
// the call through Call as usual.
//
// An accepted call runs the destination's handler on the caller's
// goroutine, so handlers reachable through CallNow must not block; see
// MemNetwork.Register.
type Immediate interface {
	CallNow(ctx context.Context, to quorum.ServerID, req any) (resp any, err error, ok bool)
}

// memCall is one call's view of the network configuration, read under a
// single RLock so every check of the call sees one consistent snapshot.
type memCall struct {
	h         Handler
	known     bool
	crashed   bool
	sameGroup bool
	drop      float64
	callCnt   *atomic.Uint64
	hook      LinkHook
	sem       chan struct{}
	clock     vtime.Clock
	minLat    time.Duration
	maxLat    time.Duration
}

// snapshot reads the configuration that governs one call to server to.
func (n *MemNetwork) snapshot(to quorum.ServerID) memCall {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h, known := n.handlers[to]
	s := memCall{
		h:         h,
		known:     known,
		crashed:   n.crashed[to],
		sameGroup: n.groups[to] == n.callGroup,
		drop:      n.dropProb,
		callCnt:   n.callSeq[to],
		hook:      n.hook,
		sem:       n.sems[to],
		clock:     n.clock,
		minLat:    n.minLat,
		maxLat:    n.maxLat,
	}
	if lr, ok := n.perServer[to]; ok {
		s.minLat, s.maxLat = lr.min, lr.max
	}
	return s
}

// waits reports whether a call under this snapshot may wait: simulated
// latency (a per-server override always has a positive max, so a zero
// effective range means no global range and no override), a LinkHook
// (which may delay the call), or a concurrency cap (which may queue it).
func (s *memCall) waits() bool {
	return s.maxLat > 0 || s.hook != nil || s.sem != nil
}

// Call implements Transport. The call observes, in order: partition state,
// crash state, the installed LinkHook (if any), simulated loss, simulated
// latency, then the server handler. Simulated loss surfaces promptly as
// ErrDropped rather than stalling until the context deadline, which keeps
// large experiments fast; production callers treat ErrDropped like a
// timeout.
func (n *MemNetwork) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	s := n.snapshot(to)
	return n.call(ctx, to, req, &s)
}

// CallNow implements Immediate. It accepts a call only when the
// destination's configuration has nothing that could make it wait — no
// simulated latency (global or per-server), no LinkHook, no concurrency
// cap — and then runs exactly Call's check sequence on the caller's
// goroutine: unknown server, partition, crash, seeded drop (advancing the
// per-destination call counter exactly as Call does, so drop patterns
// replay), context, handler. A declined call has no effect: the counter
// does not advance and no hook is consulted.
func (n *MemNetwork) CallNow(ctx context.Context, to quorum.ServerID, req any) (resp any, err error, ok bool) {
	s := n.snapshot(to)
	if s.waits() {
		return nil, nil, false
	}
	resp, err = n.call(ctx, to, req, &s)
	return resp, err, true
}

// call runs one call's checks, delays and handler under snapshot s; Call
// and CallNow share it so the two paths cannot drift.
func (n *MemNetwork) call(ctx context.Context, to quorum.ServerID, req any, s *memCall) (any, error) {
	if !s.known {
		return nil, fmt.Errorf("server %d: %w", to, ErrUnknownServer)
	}
	if !s.sameGroup {
		return nil, fmt.Errorf("server %d: %w", to, ErrPartitioned)
	}
	if s.crashed {
		return nil, fmt.Errorf("server %d: %w", to, ErrCrashed)
	}
	var fault CallFault
	if s.hook != nil {
		fault = s.hook.FilterCall(SourceFromContext(ctx), to, req)
		if fault.Drop {
			return nil, fmt.Errorf("server %d: %w", to, ErrDropped)
		}
		if fault.ReplaceReq != nil {
			req = fault.ReplaceReq
		}
	}
	if s.sem != nil {
		// Service-time accounting (SetServerConcurrency): hold one of the
		// destination's slots across the latency sleep and the handler.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	minLat, maxLat := s.minLat, s.maxLat
	if s.drop > 0 || maxLat > minLat {
		// One decision word per call, counter-hashed: both the drop verdict
		// and the latency draw depend only on (seed, destination,
		// per-destination call count), so harnesses that keep the call
		// sequence deterministic replay drops and latency byte-for-byte
		// (see callSeq).
		seq := s.callCnt.Add(1)
		base := splitmix64(n.seed ^ (uint64(to)+1)<<32 ^ seq)
		if s.drop > 0 {
			u := splitmix64(base ^ 0x0D)
			if float64(u>>11)/(1<<53) < s.drop {
				return nil, fmt.Errorf("server %d: %w", to, ErrDropped)
			}
		}
		if maxLat > minLat {
			d := minLat + time.Duration(splitmix64(base^0x1A)%uint64(maxLat-minLat+1))
			if d > 0 {
				if err := s.clock.SleepCtx(ctx, d); err != nil {
					return nil, err
				}
			}
		}
	}
	if maxLat == minLat && maxLat > 0 {
		if err := s.clock.SleepCtx(ctx, minLat); err != nil {
			return nil, err
		}
	}
	if fault.Delay > 0 {
		if err := s.clock.SleepCtx(ctx, fault.Delay); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := s.h.Handle(ctx, req)
	if fault.Duplicate {
		// Deliver the request a second time, discarding the second reply:
		// the visible effect is what idempotency (or its absence) makes it.
		s.h.Handle(ctx, req) //nolint:errcheck // duplicate delivery, reply discarded
	}
	if fault.MutateReply != nil {
		resp, err = fault.MutateReply(resp, err)
	}
	return resp, err
}

var (
	_ Transport = (*MemNetwork)(nil)
	_ Immediate = (*MemNetwork)(nil)
)
