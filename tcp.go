package pqs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pqs/internal/diffusion"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// Server is one replica served over TCP (see ListenAndServe). Its
// observability counters are exposed via Stats and AdminHandler (admin.go).
type Server struct {
	srv     *transport.TCPServer
	rep     *replica.Replica
	clock   vtime.Clock
	started time.Time

	mu         sync.Mutex
	diffSeed   int64
	gossipStop context.CancelFunc
	gossipDone chan struct{}
	gossipTC   *transport.TCPClient
}

// ServerConfig configures ListenAndServeConfig. The zero value of every
// optional field selects the production default, so
// ListenAndServeConfig(ServerConfig{ID: id, Addr: addr}) ==
// ListenAndServe(id, addr).
type ServerConfig struct {
	// ID is the replica's non-negative server id.
	ID int
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// Clock is the server's time source — uptime accounting today, every
	// future server-side timer by construction (the wallclock lint pass
	// keeps the time package out of this file). Nil means the wall clock.
	Clock vtime.Clock
	// DiffusionSeed seeds StartDiffusion's peer-selection RNG,
	// deterministically derived per server id. Zero draws a one-time seed
	// from crypto/rand — explicit entropy at the configuration boundary,
	// instead of the wall-clock seed this field replaced, which silently
	// made every diffusion run over real TCP unreplayable.
	DiffusionSeed int64
	// Codec selects the wire serialization (CodecBinary default). Every
	// client and peer must use the same codec; see ParseCodec for the
	// flag-level names. StartDiffusion's gossip client inherits it, so a
	// CodecBinaryFlate cluster compresses its server-to-server batches
	// too — the traffic compression pays for most.
	Codec Codec
}

// ListenAndServe starts a replica with the given server id on addr
// (host:port; use port 0 to pick a free port). The returned Server reports
// its bound address via Addr and is shut down with Close.
func ListenAndServe(id int, addr string) (*Server, error) {
	return ListenAndServeConfig(ServerConfig{ID: id, Addr: addr})
}

// ListenAndServeConfig is ListenAndServe with the injectable knobs —
// notably the clock and the diffusion seed, which is what lets a harness
// replay a server's diffusion behavior byte-for-byte.
func ListenAndServeConfig(cfg ServerConfig) (*Server, error) {
	if cfg.ID < 0 {
		return nil, fmt.Errorf("pqs: server id %d must be non-negative", cfg.ID)
	}
	rep := replica.New(quorum.ServerID(cfg.ID))
	srv, err := transport.ListenTCPCodec(cfg.Addr, rep, cfg.Codec)
	if err != nil {
		return nil, err
	}
	clock := vtime.Or(cfg.Clock)
	return &Server{
		srv:      srv,
		rep:      rep,
		clock:    clock,
		started:  clock.Now(),
		diffSeed: cfg.DiffusionSeed,
	}, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops the server (and its diffusion engine, if started) and waits
// for in-flight requests.
func (s *Server) Close() error {
	s.StopDiffusion()
	return s.srv.Close()
}

// MakeByzantine turns the replica into a colluding forger (see
// LocalCluster.MakeByzantine); used to exercise Byzantine scenarios over
// real sockets.
func (s *Server) MakeByzantine(forgedValue []byte) {
	s.rep.SetBehavior(replica.Forger{
		Value: forgedValue,
		Stamp: ts.Stamp{Counter: 1 << 62, Writer: 0xFFFFFFFF},
		Sig:   []byte("forged"),
	})
}

// MakeCorrect restores correct behavior.
func (s *Server) MakeCorrect() { s.rep.SetBehavior(replica.Correct{}) }

// SetReplyDelay makes the replica sleep for d before answering every
// request, turning it into a straggler over real sockets — the TCP-path
// counterpart of LocalCluster.SetServerLatency, used to exercise the
// client's hedging and early-threshold knobs (ClientConfig.Spares,
// HedgeDelay, EagerRead, W, which are transport-agnostic). A zero d
// restores prompt correct behavior.
func (s *Server) SetReplyDelay(d time.Duration) {
	if d <= 0 {
		s.rep.SetBehavior(replica.Correct{})
		return
	}
	s.rep.SetBehavior(replica.Delayed{Delay: d})
}

// StartDiffusion launches a background epidemic anti-entropy engine on this
// server: every interval it push-pulls state with fanout random peers over
// TCP (Section 1.1's lazy update propagation, as a deployment would run it
// inside each pqsd). peers maps server ids (including possibly this one,
// which is skipped) to addresses. Peer selection draws from a RNG seeded
// by ServerConfig.DiffusionSeed (crypto/rand when unset), derived per
// server id, so a configured seed makes gossip over real TCP replayable.
// Stop with StopDiffusion or Close.
func (s *Server) StartDiffusion(peers map[int]string, fanout int, interval time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gossipStop != nil {
		return fmt.Errorf("pqs: diffusion already running")
	}
	if s.diffSeed == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			return fmt.Errorf("pqs: drawing diffusion seed: %w", err)
		}
		s.diffSeed = int64(binary.LittleEndian.Uint64(b[:]) | 1) // never zero
	}
	addrs := make(map[quorum.ServerID]string, len(peers))
	ids := make([]quorum.ServerID, 0, len(peers))
	for id, a := range peers {
		addrs[quorum.ServerID(id)] = a
		ids = append(ids, quorum.ServerID(id))
	}
	tc := transport.NewTCPClientCodec(addrs, s.srv.Codec())
	eng, err := diffusion.NewEngine(diffusion.Config{
		Self:      s.rep.ID(),
		Peers:     ids,
		Transport: tc,
		Store:     s.rep.Store(),
		Fanout:    fanout,
		Interval:  interval,
		Rand:      rand.New(rand.NewSource(s.diffSeed + int64(s.rep.ID())*7919)),
	})
	if err != nil {
		tc.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	s.gossipStop = cancel
	s.gossipDone = done
	s.gossipTC = tc
	go func() {
		defer close(done)
		eng.Run(ctx)
	}()
	return nil
}

// StopDiffusion stops a running diffusion engine; it is a no-op when none
// is running.
func (s *Server) StopDiffusion() {
	s.mu.Lock()
	stop, done, tc := s.gossipStop, s.gossipDone, s.gossipTC
	s.gossipStop, s.gossipDone, s.gossipTC = nil, nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	stop()
	<-done
	tc.Close()
}

// Dial returns a Transport that reaches replica id at addrs[id] over TCP.
// Connections are established lazily, multiplexed, and re-dialed after
// failures. Close the returned client when done.
func Dial(addrs map[int]string) (*TCPClient, error) {
	return DialConfig(addrs, DialOptions{})
}

// DialOptions configures DialConfig. The zero value of every field selects
// the production default, so DialConfig(addrs, DialOptions{}) == Dial(addrs).
type DialOptions struct {
	// Codec selects the wire serialization (CodecBinary default); it must
	// match the servers'. CodecBinaryFlate deflate-compresses payload
	// slots above a size threshold — the WAN profile (see the README's
	// "WAN profile & compression" section).
	Codec Codec
	// CallTimeout bounds each Call when the caller's context has no
	// deadline. Zero means the transport default.
	CallTimeout time.Duration
	// Lifecycle enables the connection lifecycle layer: a bounded
	// health-checked connection pool per server, dial coalescing with
	// jittered exponential backoff, and a per-server circuit breaker whose
	// open state fails calls immediately with ErrServerDown (which the
	// register layer uses to promote spares at dispatch time). The zero
	// value keeps the legacy single-connection-per-server behavior.
	Lifecycle LifecycleConfig
	// Clock drives the lifecycle timers (idle reaping, probes, backoff,
	// breaker cooldown). Nil means the wall clock.
	Clock vtime.Clock
}

// DialConfig is Dial with the injectable knobs — notably the connection
// lifecycle configuration and the clock that drives its timers.
func DialConfig(addrs map[int]string, opts DialOptions) (*TCPClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("pqs: no replica addresses given")
	}
	m := make(map[quorum.ServerID]string, len(addrs))
	for id, a := range addrs {
		if id < 0 {
			return nil, fmt.Errorf("pqs: server id %d must be non-negative", id)
		}
		m[quorum.ServerID(id)] = a
	}
	return transport.NewTCPClientOpts(m, transport.TCPClientOptions{
		Codec:       opts.Codec,
		Clock:       opts.Clock,
		CallTimeout: opts.CallTimeout,
		Lifecycle:   opts.Lifecycle,
	}), nil
}

// TCPClient is the TCP-backed Transport returned by Dial.
type TCPClient = transport.TCPClient

// Codec selects the wire serialization of a Server or a dialed TCPClient;
// both ends of every connection must agree (the framing is not
// self-describing — a mismatch fails loudly at the first frame that
// diverges, never silently).
type Codec = transport.Codec

// The available wire codecs. CodecBinary is the hand-rolled binary fast
// path and the default; the flate codec is CodecBinary plus deflate
// compression of payload slots above a size threshold — the WAN profile.
const (
	CodecBinary      = transport.CodecBinary
	CodecBinaryFlate = transport.CodecBinaryFlate
)

// ParseCodec maps the flag-level codec names ("binary", "binary-flate")
// to Codec values; pqsd and pqs-cli -codec use it.
func ParseCodec(s string) (Codec, error) { return transport.ParseCodec(s) }

// LifecycleConfig tunes the per-server connection lifecycle
// (DialOptions.Lifecycle): pool size, idle reaping, health probes, dial
// backoff, and the circuit breaker.
type LifecycleConfig = transport.LifecycleConfig

// ErrServerDown is returned by a lifecycle-enabled TCPClient while a
// server's circuit breaker is open: the call fails immediately instead of
// re-dialing a server known to be down. It is classified as transient —
// retrying elsewhere (a spare quorum member) is exactly the right response.
var ErrServerDown = transport.ErrServerDown
