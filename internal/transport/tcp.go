package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// Codec selects the serialization the TCP transport uses. Both ends of a
// connection must agree (the framings are not self-describing).
type Codec int

// Codecs.
const (
	// CodecBinary is the hand-rolled length-prefixed binary codec of
	// internal/wire (codec.go): the data-plane fast path. Default.
	CodecBinary Codec = iota
	// CodecBinaryFlate is the binary codec with DEFLATE-compressed payload
	// slots (wire.TagCompressed): the WAN profile. Frames below the
	// compression threshold — or that deflate cannot shrink — go out in
	// the legacy binary layout byte-for-byte, so only byte-limited links
	// pay the compression CPU where it buys bandwidth. A CodecBinary peer
	// receiving a compressed frame fails loudly with wire.ErrUnknownTag
	// (both ends must agree on the codec).
	CodecBinaryFlate
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecBinary:
		return "binary"
	case CodecBinaryFlate:
		return "binary-flate"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// ParseCodec maps a codec name (as printed by String) back to the Codec,
// for -codec flags.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "binary":
		return CodecBinary, nil
	case "binary-flate":
		return CodecBinaryFlate, nil
	default:
		return 0, fmt.Errorf("transport: unknown codec %q (want binary or binary-flate)", s)
	}
}

// maxFrameSize bounds a single binary frame (64 MiB); a length prefix beyond
// it indicates a corrupt stream or a protocol mismatch, and failing fast
// beats attempting the allocation.
const maxFrameSize = 64 << 20

// readBufSize/writeBufSize size the per-connection bufio buffers. Typical
// frames (read/write RPCs with small values) are well under 4 KiB, so these
// hold several coalesced frames per syscall.
const (
	readBufSize  = 32 << 10
	writeBufSize = 32 << 10
)

// errCallTimeout is returned by TCPClient.Call when CallTimeout elapses
// before the reply. It implements net.Error (Timeout() == true), so
// IsTransient classifies it like any socket timeout.
var errCallTimeout = &vnetError{msg: "transport: call timed out", timeout: true}

// ConnCodecStats counts one connection's traffic through the message codec:
// envelope bodies encoded and decoded, and their byte volume. These
// counters are kept per connection — each connection's goroutines increment
// their own uncontended cache line — and aggregated into TCPStats on
// snapshot, replacing the process-wide counters the wire package used to
// maintain on the hot path (one shared cache line hammered by every
// connection in the process).
type ConnCodecStats struct {
	MessagesEncoded uint64 `json:"messages_encoded"`
	MessagesDecoded uint64 `json:"messages_decoded"`
	BytesEncoded    uint64 `json:"bytes_encoded"`
	BytesDecoded    uint64 `json:"bytes_decoded"`
	// Compression accounting (CodecBinaryFlate, encode side; other codecs
	// leave these zero): RawBytes is the uncompressed size of encoded
	// payload slots, WireBytes what they occupied on the wire after the
	// threshold/incompressible-fallback decision, and BytesSaved the
	// difference — the bandwidth deflate actually bought on this
	// connection.
	RawBytes   uint64 `json:"raw_bytes"`
	WireBytes  uint64 `json:"wire_bytes"`
	BytesSaved uint64 `json:"bytes_saved"`
}

// add accumulates o into s.
func (s *ConnCodecStats) add(o ConnCodecStats) {
	s.MessagesEncoded += o.MessagesEncoded
	s.MessagesDecoded += o.MessagesDecoded
	s.BytesEncoded += o.BytesEncoded
	s.BytesDecoded += o.BytesDecoded
	s.RawBytes += o.RawBytes
	s.WireBytes += o.WireBytes
	s.BytesSaved += o.BytesSaved
}

// codecCounters is the mutable per-connection form of ConnCodecStats.
type codecCounters struct {
	msgEnc, msgDec, bytesEnc, bytesDec atomic.Uint64
	rawBytes, wireBytes, bytesSaved    atomic.Uint64
}

func (c *codecCounters) countEncode(n int) { c.msgEnc.Add(1); c.bytesEnc.Add(uint64(n)) }
func (c *codecCounters) countDecode(n int) { c.msgDec.Add(1); c.bytesDec.Add(uint64(n)) }

// countFlate records one compressed-capable encode's raw-vs-wire outcome.
func (c *codecCounters) countFlate(r wire.FlateResult) {
	c.rawBytes.Add(uint64(r.RawBytes))
	c.wireBytes.Add(uint64(r.WireBytes))
	if r.RawBytes > r.WireBytes {
		c.bytesSaved.Add(uint64(r.RawBytes - r.WireBytes))
	}
}

func (c *codecCounters) snapshot() ConnCodecStats {
	return ConnCodecStats{
		MessagesEncoded: c.msgEnc.Load(),
		MessagesDecoded: c.msgDec.Load(),
		BytesEncoded:    c.bytesEnc.Load(),
		BytesDecoded:    c.bytesDec.Load(),
		RawBytes:        c.rawBytes.Load(),
		WireBytes:       c.wireBytes.Load(),
		BytesSaved:      c.bytesSaved.Load(),
	}
}

// codecRegistry tracks an endpoint's live connections' codec counters and
// folds finished connections into a closed total, so TCPStats aggregation
// never loses counts when connections churn.
type codecRegistry struct {
	mu     sync.Mutex
	live   map[*codecCounters]struct{}
	closed ConnCodecStats
}

func (r *codecRegistry) open() *codecCounters {
	c := &codecCounters{}
	r.mu.Lock()
	if r.live == nil {
		r.live = make(map[*codecCounters]struct{})
	}
	r.live[c] = struct{}{}
	r.mu.Unlock()
	return c
}

func (r *codecRegistry) close(c *codecCounters) {
	r.mu.Lock()
	if _, ok := r.live[c]; ok {
		delete(r.live, c)
		r.closed.add(c.snapshot())
	}
	r.mu.Unlock()
}

// total returns closed + live aggregate.
func (r *codecRegistry) total() ConnCodecStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.closed
	for c := range r.live {
		t.add(c.snapshot())
	}
	return t
}

// perConn returns a snapshot per live connection.
func (r *codecRegistry) perConn() []ConnCodecStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ConnCodecStats, 0, len(r.live))
	for c := range r.live {
		out = append(out, c.snapshot())
	}
	return out
}

// TCPStats counts one TCP endpoint's wire activity. All counters are
// cumulative; obtain snapshots via TCPServer.Stats or TCPClient.Stats.
type TCPStats struct {
	// Conns is the number of connections accepted (server) or dialed
	// (client) over the endpoint's lifetime.
	Conns uint64
	// FramesRead and FramesWritten count complete frames (requests or
	// replies) moved across the wire.
	FramesRead    uint64
	FramesWritten uint64
	// BytesRead and BytesWritten count frame bytes, including length
	// prefixes, as handed to the buffered reader/writer.
	BytesRead    uint64
	BytesWritten uint64
	// Flushes counts syscall-bound writer flushes, including the inline
	// flushes bufio performs for frames larger than the write buffer;
	// WritesCoalesced counts frames that piggybacked on another frame's
	// flush (FramesWritten - Flushes, clamped at zero). For binary
	// connections carrying frames smaller than the write buffer,
	// Flushes + WritesCoalesced == FramesWritten and
	// WritesCoalesced/FramesWritten is the syscall savings of coalescing.
	Flushes         uint64
	WritesCoalesced uint64
	// Connection-lifecycle counters, all zero unless the client was built
	// with an active TCPClientOptions.Lifecycle. DialsCoalesced counts
	// callers that joined another caller's in-flight dial instead of
	// dialing themselves (singleflight); BackoffFastFails counts calls
	// failed immediately inside a redial-backoff window.
	DialsCoalesced   uint64
	BackoffFastFails uint64
	// BreakerTrips, BreakerHalfOpens and BreakerCloses count circuit
	// breaker transitions; BreakerFastFails counts calls an open breaker
	// rejected with ErrServerDown.
	BreakerTrips     uint64
	BreakerHalfOpens uint64
	BreakerCloses    uint64
	BreakerFastFails uint64
	// ConnsReaped counts idle pool connections closed by the maintenance
	// loop; ProbesSent/ProbeFailures count its health-check ping frames.
	ConnsReaped   uint64
	ProbesSent    uint64
	ProbeFailures uint64
	// Codec aggregates the per-connection message-codec counters (closed
	// connections included). See ConnCodecStats.
	Codec ConnCodecStats
}

// tcpCounters is the shared mutable form of TCPStats' frame counters.
type tcpCounters struct {
	conns, framesRead, framesWritten, bytesRead, bytesWritten, flushes atomic.Uint64

	// Lifecycle counters (client side only; see TCPStats).
	dialsCoalesced, backoffFastFails       atomic.Uint64
	breakerTrips, breakerHalfOpens         atomic.Uint64
	breakerCloses, breakerFastFails        atomic.Uint64
	connsReaped, probesSent, probeFailures atomic.Uint64
}

func (c *tcpCounters) snapshot() TCPStats {
	s := TCPStats{
		Conns:         c.conns.Load(),
		FramesRead:    c.framesRead.Load(),
		FramesWritten: c.framesWritten.Load(),
		BytesRead:     c.bytesRead.Load(),
		BytesWritten:  c.bytesWritten.Load(),
		Flushes:       c.flushes.Load(),

		DialsCoalesced:   c.dialsCoalesced.Load(),
		BackoffFastFails: c.backoffFastFails.Load(),
		BreakerTrips:     c.breakerTrips.Load(),
		BreakerHalfOpens: c.breakerHalfOpens.Load(),
		BreakerCloses:    c.breakerCloses.Load(),
		BreakerFastFails: c.breakerFastFails.Load(),
		ConnsReaped:      c.connsReaped.Load(),
		ProbesSent:       c.probesSent.Load(),
		ProbeFailures:    c.probeFailures.Load(),
	}
	// Each flush covers at least one frame, so the difference is exactly
	// the frames that rode along on another frame's flush.
	if s.FramesWritten > s.Flushes {
		s.WritesCoalesced = s.FramesWritten - s.Flushes
	}
	return s
}

// frameBufPool recycles binary frame read buffers across requests.
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// readFrame reads one length-prefixed frame into a pooled buffer. The
// returned release function recycles the buffer; callers must not retain the
// slice after calling it (decoded values copy out of it).
func readFrame(br *bufio.Reader, c *tcpCounters) (body []byte, release func(), err error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	if n > maxFrameSize {
		return nil, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	bp := frameBufPool.Get().(*[]byte)
	if cap(*bp) < int(n) {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		frameBufPool.Put(bp)
		return nil, nil, err
	}
	c.framesRead.Add(1)
	c.bytesRead.Add(n + uint64(uvarintLen(n)))
	return buf, func() {
		// Don't let one huge gossip frame pin megabytes in the pool (same
		// cap as wire.PutBuffer).
		if cap(buf) > 1<<20 {
			return
		}
		*bp = buf[:0]
		frameBufPool.Put(bp)
	}, nil
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// frameWriter serializes frame writes onto one connection through a buffered
// writer with group-commit flush coalescing: writers append frames under the
// lock and kick a dedicated flusher goroutine, which flushes whatever has
// accumulated by the time it runs. A burst of concurrent replies or requests
// therefore reaches the socket in one syscall, and the flush syscall itself
// is off every writer's critical path.
//
// Under a vtime.SimClock the flusher is a registered worker and the kick
// channel a tracked handoff (kickPending mirrors its occupancy under mu), so
// flushes happen at the same virtual instant as the frames they carry and
// the scheduler never advances time past an unflushed frame.
type frameWriter struct {
	mu          sync.Mutex
	bw          *bufio.Writer
	err         error // sticky write/flush error (guarded by mu)
	stats       *tcpCounters
	sched       vtime.Sched
	kickPending bool // a kick is in the channel (guarded by mu)

	kick    chan struct{} // capacity 1: wakes the flusher
	done    chan struct{} // closed by close(); stops the flusher
	stopped chan struct{} // closed by flushLoop on exit; close() waits on it
}

func newFrameWriter(conn net.Conn, stats *tcpCounters, sched vtime.Sched) *frameWriter {
	w := &frameWriter{
		bw:      bufio.NewWriterSize(conn, writeBufSize),
		stats:   stats,
		sched:   sched,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	sched.Go(w.flushLoop)
	return w
}

// close stops the flusher goroutine and waits for it. Callers must close the
// underlying connection first: that makes any Flush the flusher is blocked
// in fail promptly instead of stalling teardown behind a peer that has
// stopped reading (un-flushed frames at teardown are lost, which callers
// already treat as a transient connection failure).
func (w *frameWriter) close() {
	w.mu.Lock()
	if w.err == nil {
		w.err = ErrClosed
	}
	w.mu.Unlock()
	w.sched.NoteSend() // the done close is one tracked wake-up
	close(w.done)
	unpark := w.sched.Park()
	<-w.stopped
	unpark()
	w.sched.NoteRecv()
}

// flushLoop runs the group commit: each kick flushes everything buffered
// since the last flush. The number of frames per flush grows with write
// concurrency (see TCPStats.WritesCoalesced).
func (w *frameWriter) flushLoop() {
	defer func() {
		w.sched.NoteSend() // pairs with close()'s wait on stopped
		close(w.stopped)
	}()
	for {
		unpark := w.sched.Park()
		select {
		case <-w.kick:
			unpark()
			w.sched.NoteRecv()
			// Yield once before flushing: writers that are runnable right
			// now get to append their frames first, growing the batch. On an
			// idle connection this is a no-op, so it costs no latency.
			runtime.Gosched()
			w.mu.Lock()
			w.kickPending = false
			if w.err == nil && w.bw.Buffered() > 0 {
				w.stats.flushes.Add(1)
				if err := w.bw.Flush(); err != nil {
					w.err = err
				}
			}
			w.mu.Unlock()
		case <-w.done:
			unpark()
			w.sched.NoteRecv()
			// Consume a kick that raced the shutdown, so its tracked send
			// does not strand the scheduler's pending count.
			w.mu.Lock()
			if w.kickPending {
				//pqslint:allow lockspan kickPending (guarded by w.mu) means exactly one value sits buffered in w.kick, so this receive cannot block
				<-w.kick
				w.kickPending = false
				w.sched.NoteRecv()
			}
			w.mu.Unlock()
			return
		}
	}
}

// appendDone marks a frame appended and wakes the flusher. Call with mu
// held; it unlocks. The kick send stays under mu so kickPending exactly
// mirrors the channel (the flusher's shutdown drain relies on that).
func (w *frameWriter) appendDone() {
	w.stats.framesWritten.Add(1)
	if !w.kickPending {
		w.kickPending = true
		w.sched.NoteSend()
		w.kick <- struct{}{}
	}
	w.mu.Unlock()
}

// writeFrame writes a length-prefixed binary frame.
func (w *frameWriter) writeFrame(body []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(body)))

	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	// Keep the flush counters honest for frames the buffer cannot absorb:
	// appending past the free space makes bufio flush the buffered bytes
	// inline, and a body at least as large as the whole buffer goes to the
	// socket as its own write. Both are syscalls this frame caused, so they
	// must not be reported as coalesced.
	if total := n + len(body); total > w.bw.Available() && w.bw.Buffered() > 0 {
		w.stats.flushes.Add(1)
	}
	if len(body) >= w.bw.Size() {
		w.stats.flushes.Add(1)
	}
	if _, err := w.bw.Write(lenBuf[:n]); err != nil {
		w.err = err
		w.mu.Unlock()
		return err
	}
	if _, err := w.bw.Write(body); err != nil {
		w.err = err
		w.mu.Unlock()
		return err
	}
	w.stats.bytesWritten.Add(uint64(n + len(body)))
	w.appendDone()
	return nil
}

// TCPOptions configures a TCPServer beyond its codec.
type TCPOptions struct {
	// Codec selects the wire serialization (CodecBinary default).
	Codec Codec
	// Clock supplies the scheduling discipline. Nil means the wall clock;
	// a vtime.SimClock enrolls every server goroutine (accept loop,
	// connection read loops, flushers, worker pools) in the virtual-time
	// scheduler, which is what lets the real data plane run inside the
	// deterministic harnesses (see VirtualNet).
	Clock vtime.Clock
}

// TCPServer serves a Handler over a listener using framed wire.Envelope
// messages (binary codec by default; see ListenTCPCodec). Each accepted
// connection is multiplexed: requests are handled concurrently and replies
// are written back tagged with the request id, so a single client connection
// can have many calls in flight. Concurrent replies are coalesced into
// shared flushes (one syscall per burst).
type TCPServer struct {
	handler  Handler
	listener net.Listener
	codec    Codec
	clock    vtime.Clock
	sched    vtime.Sched

	// baseCtx is the root of every per-connection context; Close cancels it,
	// so in-flight handlers observe shutdown instead of running on past it.
	baseCtx   context.Context
	cancelCtx context.CancelFunc

	stats    tcpCounters
	codecReg codecRegistry

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     *vtime.WaitGroup
}

// ListenTCP starts serving h on addr (e.g. "127.0.0.1:0") with the default
// binary codec. Close shuts the server down and waits for connection
// goroutines to finish.
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	return ListenTCPCodec(addr, h, CodecBinary)
}

// ListenTCPCodec is ListenTCP with an explicit codec. Clients must dial with
// the same codec.
func ListenTCPCodec(addr string, h Handler, codec Codec) (*TCPServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return ServeListener(l, h, TCPOptions{Codec: codec}), nil
}

// ServeListener runs the TCP server stack on an existing listener — a real
// socket or a VirtualNet listener. This is the injection point that lets
// the unmodified data plane (framing, codec, flusher, worker pool) run on
// virtual-time byte streams inside the harnesses.
func ServeListener(l net.Listener, h Handler, o TCPOptions) *TCPServer {
	clk := vtime.Or(o.Clock)
	ctx, cancel := context.WithCancel(context.Background())
	s := &TCPServer{
		handler: h, listener: l, codec: o.Codec,
		clock: clk, sched: vtime.SchedOf(clk),
		baseCtx: ctx, cancelCtx: cancel,
		conns: make(map[net.Conn]struct{}),
		wg:    vtime.NewWaitGroup(clk),
	}
	s.wg.Add(1)
	s.sched.Go(s.acceptLoop)
	return s
}

// Addr returns the listener's address, useful with port 0.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

// Codec returns the codec the server speaks.
func (s *TCPServer) Codec() Codec { return s.codec }

// Stats returns a snapshot of the server's wire counters.
func (s *TCPServer) Stats() TCPStats {
	st := s.stats.snapshot()
	st.Codec = s.codecReg.total()
	return st
}

// ConnStats returns per-connection codec counters for the server's live
// connections (the admin endpoint surfaces these).
func (s *TCPServer) ConnStats() []ConnCodecStats { return s.codecReg.perConn() }

// Close stops the listener, cancels the context of every in-flight request,
// closes open connections and waits for all server goroutines to exit.
func (s *TCPServer) Close() error {
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
	s.cancelCtx()
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.conns.Add(1)
		s.sched.Go(func() { s.serveConn(conn) })
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Every request on this connection runs under a context cancelled when
	// the connection tears down or the server closes, so in-flight handlers
	// cannot outlive either.
	ctx, cancel := context.WithCancel(s.baseCtx)
	w := newFrameWriter(conn, &s.stats, s.sched)
	cc := s.codecReg.open()
	defer s.codecReg.close(cc)
	// Teardown order (LIFO): cancel the connection context FIRST — its
	// replies are undeliverable, and a handler blocked on ctx.Done would
	// otherwise deadlock the wait — then wait out in-flight handlers, then
	// close the socket, then stop the flusher (the socket must die before
	// the flusher; see frameWriter.close).
	defer w.close()
	defer conn.Close()
	reqWG := vtime.NewWaitGroup(s.clock)
	defer reqWG.Wait()
	defer cancel()

	handle := func(env wire.Envelope) {
		resp, err := s.handler.Handle(ctx, env.Payload)
		reply := wire.ReplyEnvelope{ID: env.ID, Payload: resp}
		if err != nil {
			reply.Err = err.Error()
			// Classify the failure on the wire so clients can stop retrying
			// what retrying cannot fix (see wire.ErrKind*). Permanent is
			// claimed only on positive identification (the handler marked it
			// via wire.PermanentError or its own Permanent() method) — an
			// unrecognized error stays Unknown, which clients treat as
			// retryable, because misfiling a transient overload/shutdown
			// error as permanent would stop a quorum re-sample that could
			// succeed.
			switch {
			case IsPermanent(err):
				reply.ErrKind = wire.ErrKindPermanent
			case IsTransient(err):
				reply.ErrKind = wire.ErrKindTransient
			default:
				reply.ErrKind = wire.ErrKindUnknown
			}
			reply.Payload = nil
		}
		// A write error means the connection is going away; the read loop
		// will observe it and exit.
		bp := wire.GetBuffer()
		var frame []byte
		var encErr error
		if s.codec == CodecBinaryFlate {
			var res wire.FlateResult
			frame, res, encErr = wire.AppendReplyEnvelopeFlate(*bp, reply)
			if encErr == nil {
				cc.countFlate(res)
			}
		} else {
			frame, encErr = wire.AppendReplyEnvelope(*bp, reply)
		}
		if encErr != nil {
			// The handler returned a payload the closed binary codec cannot
			// carry; surface that as a permanent RPC error instead of
			// dropping the reply (the client would hang).
			frame, _ = wire.AppendReplyEnvelope((*bp)[:0], wire.ReplyEnvelope{
				ID: env.ID, Err: encErr.Error(), ErrKind: wire.ErrKindPermanent,
			})
		}
		cc.countEncode(len(frame))
		_ = w.writeFrame(frame)
		*bp = frame[:0]
		wire.PutBuffer(bp)
	}

	// A small pool of resident workers absorbs the steady request stream
	// (goroutine creation and its stack growth were measurable on the hot
	// path). The channel is unbuffered on purpose: a request is only handed
	// to a worker that is already idle and overflows to a fresh goroutine
	// otherwise, so a slow handler can never head-of-line-block a request
	// that arrived after it.
	const workers = 4
	reqCh := make(chan wire.Envelope)
	defer func() {
		// Each pool worker consumes the close as one WEAK wake-up: weak so
		// that a worker busy in a handler sleeping on the clock cannot
		// freeze virtual time with its unconsumed wake (exiting workers do
		// nothing observable; reqWG.Done is its own tracked release), yet
		// visible enough that the deadlock detector waits out the wake
		// in-flight window instead of panicking.
		for i := 0; i < workers; i++ {
			s.sched.NoteWeakSend()
		}
		close(reqCh)
	}()
	for i := 0; i < workers; i++ {
		reqWG.Add(1)
		s.sched.Go(func() {
			defer reqWG.Done()
			for {
				unpark := s.sched.Park()
				env, ok := <-reqCh
				unpark()
				if !ok {
					s.sched.NoteWeakRecv()
					return
				}
				s.sched.NoteRecv()
				handle(env)
			}
		})
	}
	dispatch := func(env wire.Envelope) {
		s.sched.NoteSend()
		select {
		case reqCh <- env:
		default:
			s.sched.NoteRecv() // no idle worker took it; undo the note
			reqWG.Add(1)
			s.sched.Go(func() {
				defer reqWG.Done()
				handle(env)
			})
		}
	}

	br := bufio.NewReaderSize(conn, readBufSize)
	for {
		body, release, err := readFrame(br, &s.stats)
		if err != nil {
			return
		}
		var env wire.Envelope
		if s.codec == CodecBinaryFlate {
			env, err = wire.DecodeEnvelopeFlate(body)
		} else {
			env, err = wire.DecodeEnvelope(body)
		}
		cc.countDecode(len(body))
		release()
		if err != nil {
			return // corrupt stream; drop the connection
		}
		dispatch(env)
	}
}

// TCPClientOptions configures a TCPClient beyond its codec.
type TCPClientOptions struct {
	// Codec selects the wire serialization (CodecBinary default); it must
	// match the servers'.
	Codec Codec
	// Clock supplies timers and the scheduling discipline (nil = wall).
	Clock vtime.Clock
	// Dial overrides how connections are established. It receives the
	// destination server id and its configured address; nil means
	// net.Dial("tcp", addr). The harnesses pass VirtualNet.Dialer here.
	Dial func(to quorum.ServerID, addr string) (net.Conn, error)
	// CallTimeout, when positive, bounds every Call on the client's clock:
	// a call that has not completed within it fails with a transient
	// timeout error and its connection is torn down (re-dialed on the next
	// call). Under a SimClock the timer is part of the deterministic event
	// order, which gives the harnesses bounded-liveness over faults no
	// prompt error can surface — a corrupted length prefix, a reply whose
	// id was flipped in flight — without wall-clock deadlines.
	CallTimeout time.Duration
	// Lifecycle tunes the per-server connection lifecycle: pool size, idle
	// reaping, health probes, dial backoff and the circuit breaker. The
	// zero value preserves the legacy single-connection behavior exactly.
	Lifecycle LifecycleConfig
}

// TCPClient implements Transport over TCP. It maintains a small pool of
// multiplexed connections per server (one by default), established lazily
// and re-dialed after failures, with optional dial coalescing, jittered
// redial backoff and a per-server circuit breaker (see LifecycleConfig).
// Concurrent requests on one connection are coalesced into shared flushes.
type TCPClient struct {
	addrs       map[quorum.ServerID]string
	codec       Codec
	clock       vtime.Clock
	sched       vtime.Sched
	dial        func(to quorum.ServerID, addr string) (net.Conn, error)
	callTimeout time.Duration
	lifecycle   LifecycleConfig

	stats    tcpCounters
	codecReg codecRegistry

	// maintDone/maintStopped bracket the maintenance loop's lifetime; both
	// are nil when the lifecycle config needs no background maintenance.
	maintDone    chan struct{}
	maintStopped chan struct{}

	mu     sync.Mutex
	states map[quorum.ServerID]*serverState
	closed bool
	nextID atomic.Uint64
}

// NewTCPClient returns a client that reaches server id at addrs[id] with the
// default binary codec.
func NewTCPClient(addrs map[quorum.ServerID]string) *TCPClient {
	return NewTCPClientCodec(addrs, CodecBinary)
}

// NewTCPClientCodec is NewTCPClient with an explicit codec; it must match
// the servers'.
func NewTCPClientCodec(addrs map[quorum.ServerID]string, codec Codec) *TCPClient {
	return NewTCPClientOpts(addrs, TCPClientOptions{Codec: codec})
}

// NewTCPClientOpts is NewTCPClient with full options (codec, clock, dialer
// injection, call timeout).
func NewTCPClientOpts(addrs map[quorum.ServerID]string, o TCPClientOptions) *TCPClient {
	cp := make(map[quorum.ServerID]string, len(addrs))
	for id, a := range addrs {
		cp[id] = a
	}
	clk := vtime.Or(o.Clock)
	dial := o.Dial
	if dial == nil {
		dial = func(_ quorum.ServerID, addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}
	}
	c := &TCPClient{
		addrs: cp, codec: o.Codec,
		clock: clk, sched: vtime.SchedOf(clk),
		dial: dial, callTimeout: o.CallTimeout,
		lifecycle: o.Lifecycle,
		states:    make(map[quorum.ServerID]*serverState),
	}
	if c.lifecycle.maintenance() {
		c.maintDone = make(chan struct{})
		c.maintStopped = make(chan struct{})
		c.sched.Go(c.maintainLoop)
	}
	return c
}

// newWaitGroup returns a WaitGroup on the client's clock (virtual-time
// aware under a SimClock).
func (c *TCPClient) newWaitGroup() *vtime.WaitGroup { return vtime.NewWaitGroup(c.clock) }

var _ Transport = (*TCPClient)(nil)

// Codec returns the codec the client speaks.
func (c *TCPClient) Codec() Codec { return c.codec }

// Stats returns a snapshot of the client's wire counters, aggregated over
// all its connections.
func (c *TCPClient) Stats() TCPStats {
	st := c.stats.snapshot()
	st.Codec = c.codecReg.total()
	return st
}

// ConnStats returns per-connection codec counters for the client's live
// connections.
func (c *TCPClient) ConnStats() []ConnCodecStats { return c.codecReg.perConn() }

// Call implements Transport. Transport-level outcomes (dial failures, send
// errors, torn connections, timeouts) feed the server's circuit breaker;
// server-answered RPC errors count as reachability successes and surface
// as *RPCError carrying the wire's transient/permanent classification.
func (c *TCPClient) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	conn, st, err := c.acquire(to)
	if err != nil {
		return nil, err
	}
	defer st.release(conn)
	id := c.nextID.Add(1)
	ch, err := conn.send(id, req)
	if err != nil {
		st.evict(conn)
		st.recordFailure()
		return nil, err
	}
	var timeoutC <-chan time.Time
	if c.callTimeout > 0 {
		t := c.clock.NewTimer(c.callTimeout)
		defer t.Stop()
		timeoutC = t.C
	}
	reply := func(r wire.ReplyEnvelope, ok bool) (any, error) {
		if !ok {
			st.evict(conn)
			st.recordFailure()
			return nil, fmt.Errorf("server %d: %w", to, ErrClosed)
		}
		st.recordSuccess()
		if r.Err != "" {
			return nil, &RPCError{Server: to, Kind: r.ErrKind, Msg: r.Err}
		}
		return r.Payload, nil
	}
	unpark := c.sched.Park()
	select {
	case r, ok := <-ch:
		unpark()
		c.sched.NoteRecv()
		return reply(r, ok)
	case <-timeoutC:
		unpark()
		c.sched.NoteRecv()
		if !conn.abandon(id) {
			// A reply (or the conn's failure close) raced the timer into the
			// buffered channel: consume it — its tracked send must not
			// strand the scheduler's pending count — and honor it, so the
			// call's outcome does not depend on which case of a same-instant
			// race the select happened to pick.
			r, ok := <-ch
			c.sched.NoteRecv()
			return reply(r, ok)
		}
		// The conn is suspect (slow, stalled, or its framing desynced by a
		// corrupted prefix): the call is abandoned and the conn torn down so
		// the next call re-dials a clean stream.
		st.evict(conn)
		st.recordFailure()
		return nil, fmt.Errorf("server %d: %w", to, errCallTimeout)
	case <-ctx.Done():
		unpark()
		if !conn.abandon(id) {
			// The reply (or the conn's failure close) already claimed the
			// call: its tracked wake-up is in the buffered channel or about
			// to land there. Consume it so the send's NoteSend cannot
			// strand the scheduler's pending count — under a SimClock an
			// unconsumed tracked message freezes virtual time forever.
			<-ch
			c.sched.NoteRecv()
		}
		// Cancellation proves nothing about the server; release a held
		// half-open trial slot without moving the breaker.
		st.recordNeutral()
		return nil, ctx.Err()
	}
}

// ServerDown implements HealthReporter: true when the server's circuit
// breaker would reject a call right now with ErrServerDown.
func (c *TCPClient) ServerDown(id quorum.ServerID) bool {
	if c.lifecycle.BreakerThreshold <= 0 {
		return false
	}
	c.mu.Lock()
	st := c.states[id]
	c.mu.Unlock()
	if st == nil {
		return false
	}
	return st.down(c.clock.Now(), &c.lifecycle)
}

// Close closes all connections and stops the maintenance loop. Subsequent
// calls fail.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	states := make([]*serverState, 0, len(c.states))
	for _, st := range c.states {
		states = append(states, st)
	}
	c.mu.Unlock()
	if c.maintDone != nil {
		c.sched.NoteSend() // the done close is one tracked wake-up
		close(c.maintDone)
		unpark := c.sched.Park()
		<-c.maintStopped
		unpark()
		c.sched.NoteRecv()
	}
	var first error
	for _, st := range states {
		if err := st.closeAll(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// acquire resolves the server's lifecycle state and leases a pooled
// connection from it (dialing as needed).
func (c *TCPClient) acquire(to quorum.ServerID) (*tcpConn, *serverState, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, ErrClosed
	}
	st, ok := c.states[to]
	if !ok {
		if _, known := c.addrs[to]; !known {
			c.mu.Unlock()
			return nil, nil, fmt.Errorf("server %d: %w", to, ErrUnknownServer)
		}
		st = &serverState{c: c, id: to}
		c.states[to] = st
	}
	c.mu.Unlock()
	conn, err := st.acquire()
	if err != nil {
		return nil, nil, err
	}
	return conn, st, nil
}

// tcpConn is one multiplexed client connection.
type tcpConn struct {
	raw   net.Conn
	codec Codec
	w     *frameWriter
	stats *tcpCounters
	sched vtime.Sched
	cc    *codecCounters
	reg   *codecRegistry

	// leases counts callers currently holding the connection (calls in
	// flight plus health probes); lastUsed is the clock's UnixNano at the
	// last release. The maintenance loop reaps only unleased connections
	// idle past the configured timeout.
	leases   atomic.Int64
	lastUsed atomic.Int64

	mu        sync.Mutex
	pending   map[uint64]chan wire.ReplyEnvelope
	abandoned map[uint64]struct{}
	closed    bool
}

func (c *tcpConn) lease()   { c.leases.Add(1) }
func (c *tcpConn) unlease() { c.leases.Add(-1) }

// load is the number of live leases (the pool grows only when every
// connection has at least one).
func (c *tcpConn) load() int64 { return c.leases.Load() }

// touch stamps the idle clock; idleSince reads it.
func (c *tcpConn) touch(nanos int64) { c.lastUsed.Store(nanos) }
func (c *tcpConn) idleSince() int64  { return c.lastUsed.Load() }

func (c *tcpConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func newTCPConn(raw net.Conn, codec Codec, stats *tcpCounters, sched vtime.Sched, cc *codecCounters, reg *codecRegistry) *tcpConn {
	c := &tcpConn{
		raw:       raw,
		codec:     codec,
		w:         newFrameWriter(raw, stats, sched),
		stats:     stats,
		sched:     sched,
		cc:        cc,
		reg:       reg,
		pending:   make(map[uint64]chan wire.ReplyEnvelope),
		abandoned: make(map[uint64]struct{}),
	}
	sched.Go(c.readLoop)
	return c
}

func (c *tcpConn) send(id uint64, req any) (chan wire.ReplyEnvelope, error) {
	ch := make(chan wire.ReplyEnvelope, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[id] = ch
	c.mu.Unlock()

	bp := wire.GetBuffer()
	var frame []byte
	var err error
	if c.codec == CodecBinaryFlate {
		var res wire.FlateResult
		frame, res, err = wire.AppendEnvelopeFlate(*bp, wire.Envelope{ID: id, Payload: req})
		if err == nil {
			c.cc.countFlate(res)
		}
	} else {
		frame, err = wire.AppendEnvelope(*bp, wire.Envelope{ID: id, Payload: req})
	}
	if err == nil {
		c.cc.countEncode(len(frame))
		err = c.w.writeFrame(frame)
		*bp = frame[:0]
	}
	wire.PutBuffer(bp)
	if err != nil {
		c.forget(id)
		return nil, fmt.Errorf("transport: send: %w", err)
	}
	return ch, nil
}

// forget drops a pending call without expecting its reply (send failure:
// the request never went out).
func (c *tcpConn) forget(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, id)
}

// abandon drops a pending call whose reply may still arrive (timeout or
// context cancellation); a late reply matching it is discarded silently
// instead of being treated as a protocol violation. It reports whether the
// call was still pending: false means deliver or failAll already claimed
// it, so a (tracked) wake-up is in — or imminently landing in — the
// call's buffered channel and the caller must consume it.
func (c *tcpConn) abandon(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; ok {
		delete(c.pending, id)
		c.abandoned[id] = struct{}{}
		return true
	}
	return false
}

func (c *tcpConn) readLoop() {
	br := bufio.NewReaderSize(c.raw, readBufSize)
	for {
		body, release, err := readFrame(br, c.stats)
		if err != nil {
			c.failAll()
			return
		}
		var reply wire.ReplyEnvelope
		if c.codec == CodecBinaryFlate {
			reply, err = wire.DecodeReplyEnvelopeFlate(body)
		} else {
			reply, err = wire.DecodeReplyEnvelope(body)
		}
		c.cc.countDecode(len(body))
		release()
		if err != nil {
			c.failAll()
			return
		}
		if !c.deliver(reply) {
			return
		}
	}
}

// deliver routes a reply to its waiting call. A reply matching no pending
// or abandoned call means the stream is desynced or an id was corrupted in
// flight: the connection is failed (false return stops the read loop).
func (c *tcpConn) deliver(reply wire.ReplyEnvelope) bool {
	c.mu.Lock()
	ch, ok := c.pending[reply.ID]
	if ok {
		delete(c.pending, reply.ID)
		c.mu.Unlock()
		c.sched.NoteSend()
		ch <- reply
		return true
	}
	if _, was := c.abandoned[reply.ID]; was {
		delete(c.abandoned, reply.ID)
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()
	c.failAll()
	return false
}

// failAll closes the connection and wakes every pending caller with a
// closed channel.
func (c *tcpConn) failAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for id, ch := range c.pending {
		c.sched.NoteSend() // the close below is one tracked wake-up
		close(ch)
		delete(c.pending, id)
	}
	c.abandoned = make(map[uint64]struct{})
	c.raw.Close() // before w.close: unblocks a flusher stuck in Flush
	c.w.close()
	c.reg.close(c.cc)
}

func (c *tcpConn) close() error {
	c.failAll()
	return nil
}

// IsTransient reports whether err is a transport-level failure that a
// client protocol may treat as a missing reply from one server (rather
// than a protocol violation): crashes, drops, partitions, closed
// transports, timeouts and network errors.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCrashed) || errors.Is(err, ErrDropped) ||
		errors.Is(err, ErrPartitioned) || errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrServerDown) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr)
}
