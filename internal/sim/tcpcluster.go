package sim

// TCPCluster stands a replica set up behind the REAL TCP data plane —
// framing, binary codec, group-commit flusher, worker pool — running over
// virtual-time byte streams (transport.VirtualNet), so the harnesses can
// measure ε and replay chaos schedules against the code path production
// actually runs instead of the MemNetwork stand-in.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/vtime"
)

// Transport selector values for config.Topology.Transport, as embedded in
// chaos.Config and load.Config.
const (
	// TransportMem runs client calls directly on the in-process MemNetwork
	// (the default, and the only option before the virtual TCP data plane).
	TransportMem = "mem"
	// TransportTCPVirtual runs every call through the real TCP stack over
	// SimClock-scheduled byte streams. Requires a virtual run.
	TransportTCPVirtual = "tcp-virtual"
)

// DefaultCallTimeout bounds each TCP call in the harnesses (virtual time,
// so a timed-out call costs no wall clock). It must dominate any legitimate
// round trip the scenarios produce — straggler latencies run to a few
// hundred milliseconds — while still reaping the stalls only byte-level
// faults can cause (a corrupted length prefix desyncing a stream).
const DefaultCallTimeout = time.Second

// swapHandler lets the harness replace a server's replica mid-run
// (membership rejoin installs a fresh, empty replica) without tearing the
// TCP server down: the server holds the indirection, not the replica.
type swapHandler struct {
	mu sync.RWMutex
	h  transport.Handler
}

func (s *swapHandler) set(h transport.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// Handle implements transport.Handler.
func (s *swapHandler) Handle(ctx context.Context, req any) (any, error) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	return h.Handle(ctx, req)
}

// TCPCluster is the TCP data plane wired over a cluster's replicas.
type TCPCluster struct {
	// Net is the virtual byte-stream network: latency, pacing and
	// byte-level faults are configured here.
	Net *transport.VirtualNet
	// Client is the quorum client's transport (source identity
	// transport.ClientSource). Calls are bounded by the call timeout.
	Client *transport.TCPClient

	clk     vtime.Clock
	timeout time.Duration
	codec   transport.Codec

	mu       sync.Mutex
	handlers map[quorum.ServerID]*swapHandler
	servers  []*transport.TCPServer
	addrs    map[quorum.ServerID]string
	gossip   map[quorum.ServerID]*transport.TCPClient
}

// TCPClusterOptions parameterises NewTCPCluster beyond the required
// cluster/clock/seed triple. The zero value is the production default.
type TCPClusterOptions struct {
	// CallTimeout bounds each client call; <= 0 means DefaultCallTimeout.
	CallTimeout time.Duration
	// Codec selects the wire codec for every server and client in the
	// fixture (zero value = CodecBinary, the production default).
	Codec transport.Codec
	// Lifecycle configures pooling, redial backoff and the circuit breaker
	// on the main client (zero value = legacy single-connection behaviour).
	Lifecycle transport.LifecycleConfig
}

// NewTCPCluster wires every replica of c behind its own TCP server on a
// fresh VirtualNet over clk, and returns the fixture plus a client
// reaching all of them.
func NewTCPCluster(c *Cluster, clk vtime.Clock, seed int64, opts TCPClusterOptions) (*TCPCluster, error) {
	if clk == nil {
		return nil, errors.New("sim: TCP cluster requires a clock (virtual run)")
	}
	callTimeout := opts.CallTimeout
	if callTimeout <= 0 {
		callTimeout = DefaultCallTimeout
	}
	t := &TCPCluster{
		Net:      transport.NewVirtualNet(clk, seed),
		clk:      clk,
		timeout:  callTimeout,
		codec:    opts.Codec,
		handlers: make(map[quorum.ServerID]*swapHandler),
		addrs:    make(map[quorum.ServerID]string),
		gossip:   make(map[quorum.ServerID]*transport.TCPClient),
	}
	for _, r := range c.Replicas {
		if err := t.serve(r.ID(), r); err != nil {
			return nil, err
		}
	}
	t.Client = t.NewSourceClient(transport.ClientSource, opts.Lifecycle)
	return t, nil
}

// NewSourceClient builds an extra client over the fixture's network with its
// own source identity and lifecycle configuration. The dial-storm chaos
// action uses this to stand up many independent clients hammering one
// address space; tests use it to compare lifecycle policies side by side.
// The caller owns the client's Close (the fixture does not track it).
func (t *TCPCluster) NewSourceClient(src quorum.ServerID, lc transport.LifecycleConfig) *transport.TCPClient {
	return transport.NewTCPClientOpts(t.addrs, transport.TCPClientOptions{
		Clock:       t.clk,
		Dial:        t.Net.Dialer(src),
		CallTimeout: t.timeout,
		Codec:       t.codec,
		Lifecycle:   lc,
	})
}

// serve binds id's listener and starts its TCP server behind the handler
// indirection. t.mu must not be held.
func (t *TCPCluster) serve(id quorum.ServerID, h transport.Handler) error {
	l, err := t.Net.Listen(id)
	if err != nil {
		return fmt.Errorf("sim: tcp cluster: %w", err)
	}
	t.mu.Lock()
	sh, ok := t.handlers[id]
	if !ok {
		sh = &swapHandler{}
		t.handlers[id] = sh
	}
	sh.set(h)
	t.servers = append(t.servers, transport.ServeListener(l, sh, transport.TCPOptions{Clock: t.clk, Codec: t.codec}))
	t.addrs[id] = l.Addr().String()
	t.mu.Unlock()
	return nil
}

// SetHandler replaces the replica behind id's server (membership rejoin
// with a fresh replica). If id's listener was deregistered (a prior
// leave), a new server is bound; otherwise the live server simply serves
// the new handler.
func (t *TCPCluster) SetHandler(id quorum.ServerID, h transport.Handler) error {
	t.mu.Lock()
	sh, ok := t.handlers[id]
	t.mu.Unlock()
	if ok {
		sh.set(h)
		// Rebind only if a leave removed the address; Listen fails harmlessly
		// when the binding is still live.
		if l, err := t.Net.Listen(id); err == nil {
			t.mu.Lock()
			t.servers = append(t.servers, transport.ServeListener(l, sh, transport.TCPOptions{Clock: t.clk, Codec: t.codec}))
			t.mu.Unlock()
		}
		return nil
	}
	return t.serve(id, h)
}

// GossipTransport returns a Transport for server-initiated traffic
// (diffusion): each call is routed through a per-source TCP client keyed by
// the transport.WithSource identity, so the byte-level fault plane sees
// true server-to-server links instead of attributing gossip to the client.
func (t *TCPCluster) GossipTransport() transport.Transport {
	return gossipTransport{t}
}

type gossipTransport struct{ t *TCPCluster }

// Call implements transport.Transport.
func (g gossipTransport) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	from := transport.SourceFromContext(ctx)
	g.t.mu.Lock()
	cl, ok := g.t.gossip[from]
	if !ok {
		cl = transport.NewTCPClientOpts(g.t.addrs, transport.TCPClientOptions{
			Clock:       g.t.clk,
			Dial:        g.t.Net.Dialer(from),
			CallTimeout: g.t.timeout,
			Codec:       g.t.codec,
		})
		g.t.gossip[from] = cl
	}
	g.t.mu.Unlock()
	return cl.Call(ctx, to, req)
}

// Close tears the whole fixture down: clients first (their connections
// reset), then every server. Inside a SimClock run this must happen before
// the run body returns, so the scheduler's workers all retire.
func (t *TCPCluster) Close() {
	t.mu.Lock()
	servers := t.servers
	t.servers = nil
	gossip := t.gossip
	t.gossip = make(map[quorum.ServerID]*transport.TCPClient)
	t.mu.Unlock()
	if t.Client != nil {
		t.Client.Close()
	}
	for _, cl := range gossip {
		cl.Close()
	}
	for _, s := range servers {
		s.Close()
	}
}
