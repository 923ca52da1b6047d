package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// echoHandler returns the request payload, optionally failing.
type echoHandler struct {
	id   int
	fail error
}

func (e *echoHandler) Handle(_ context.Context, req any) (any, error) {
	if e.fail != nil {
		return nil, e.fail
	}
	if _, ok := req.(wire.PingRequest); ok {
		return wire.PingReply{ServerID: e.id}, nil
	}
	return req, nil
}

func TestMemNetworkBasicCall(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(0, &echoHandler{id: 0})
	resp, err := n.Call(context.Background(), 0, wire.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(wire.PingReply); got.ServerID != 0 {
		t.Errorf("reply %+v", got)
	}
}

func TestMemNetworkUnknownServer(t *testing.T) {
	n := NewMemNetwork(1)
	_, err := n.Call(context.Background(), 42, wire.PingRequest{})
	if !errors.Is(err, ErrUnknownServer) {
		t.Errorf("err = %v, want ErrUnknownServer", err)
	}
}

func TestMemNetworkCrashRecover(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(3, &echoHandler{id: 3})
	n.Crash(3)
	if _, err := n.Call(context.Background(), 3, wire.PingRequest{}); !errors.Is(err, ErrCrashed) {
		t.Errorf("err = %v, want ErrCrashed", err)
	}
	if n.CrashedCount() != 1 {
		t.Errorf("CrashedCount = %d", n.CrashedCount())
	}
	n.Recover(3)
	if _, err := n.Call(context.Background(), 3, wire.PingRequest{}); err != nil {
		t.Errorf("after recover: %v", err)
	}
	if n.CrashedCount() != 0 {
		t.Errorf("CrashedCount after recover = %d", n.CrashedCount())
	}
}

func TestMemNetworkDropStatistics(t *testing.T) {
	n := NewMemNetwork(7)
	n.Register(0, &echoHandler{id: 0})
	n.SetDropProb(0.3)
	trials, drops := 20000, 0
	for i := 0; i < trials; i++ {
		if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); errors.Is(err, ErrDropped) {
			drops++
		}
	}
	rate := float64(drops) / float64(trials)
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("drop rate %v, want ~0.3", rate)
	}
	n.SetDropProb(0)
	if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
		t.Errorf("after clearing drops: %v", err)
	}
}

func TestMemNetworkPartition(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(0, &echoHandler{id: 0})
	n.Register(1, &echoHandler{id: 1})
	n.SetPartition(map[quorum.ServerID]int{0: 0, 1: 1})
	if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
		t.Errorf("same-group call failed: %v", err)
	}
	if _, err := n.Call(context.Background(), 1, wire.PingRequest{}); !errors.Is(err, ErrPartitioned) {
		t.Errorf("cross-group err = %v, want ErrPartitioned", err)
	}
	n.SetCallerGroup(1)
	if _, err := n.Call(context.Background(), 1, wire.PingRequest{}); err != nil {
		t.Errorf("after moving caller group: %v", err)
	}
	n.ClearPartition()
	n.SetCallerGroup(0)
	if _, err := n.Call(context.Background(), 1, wire.PingRequest{}); err != nil {
		t.Errorf("after healing: %v", err)
	}
}

func TestMemNetworkLatencyAndContext(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(0, &echoHandler{id: 0})
	n.SetLatency(5*time.Millisecond, 10*time.Millisecond)
	start := time.Now()
	if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("latency not simulated: %v", elapsed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := n.Call(ctx, 0, wire.PingRequest{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestMemNetworkHandlerError(t *testing.T) {
	n := NewMemNetwork(1)
	boom := errors.New("boom")
	n.Register(0, &echoHandler{id: 0, fail: boom})
	if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestMemNetworkConcurrent(t *testing.T) {
	n := NewMemNetwork(1)
	for id := 0; id < 8; id++ {
		n.Register(quorum.ServerID(id), &echoHandler{id: id})
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := quorum.ServerID((g + i) % 8)
				resp, err := n.Call(context.Background(), id, wire.PingRequest{})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if resp.(wire.PingReply).ServerID != int(id) {
					t.Errorf("cross-talk: asked %d got %d", id, resp.(wire.PingReply).ServerID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", &echoHandler{id: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient(map[quorum.ServerID]string{5: srv.Addr()})
	defer client.Close()
	resp, err := client.Call(context.Background(), 5, wire.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(wire.PingReply).ServerID != 5 {
		t.Errorf("reply %+v", resp)
	}
	// Round-trip a full write request through the echo handler.
	wreq := wire.WriteRequest{Key: "k", Value: []byte("v")}
	if resp, err = client.Call(context.Background(), 5, wreq); err != nil {
		t.Fatal(err)
	}
	if got := resp.(wire.WriteRequest); got.Key != "k" || string(got.Value) != "v" {
		t.Errorf("echoed write = %+v", got)
	}
}

func TestTCPServerError(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", &echoHandler{id: 1, fail: errors.New("storage exploded")})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient(map[quorum.ServerID]string{1: srv.Addr()})
	defer client.Close()
	_, err = client.Call(context.Background(), 1, wire.PingRequest{})
	if err == nil || err.Error() != "server 1: storage exploded" {
		t.Errorf("err = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", &echoHandler{id: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient(map[quorum.ServerID]string{2: srv.Addr()})
	defer client.Close()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				resp, err := client.Call(context.Background(), 2, wire.ReadRequest{Key: key})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if got := resp.(wire.ReadRequest).Key; got != key {
					t.Errorf("multiplexing mixed replies: want %q got %q", key, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTCPUnknownServer(t *testing.T) {
	client := NewTCPClient(nil)
	defer client.Close()
	if _, err := client.Call(context.Background(), 9, wire.PingRequest{}); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("err = %v, want ErrUnknownServer", err)
	}
}

func TestTCPClientClose(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", &echoHandler{id: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient(map[quorum.ServerID]string{0: srv.Addr()})
	if _, err := client.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(context.Background(), 0, wire.PingRequest{}); !errors.Is(err, ErrClosed) {
		t.Errorf("after close: %v, want ErrClosed", err)
	}
}

func TestTCPServerCloseFailsPendingCalls(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		<-block
		return req, nil
	})
	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCPClient(map[quorum.ServerID]string{0: srv.Addr()})
	defer client.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), 0, wire.PingRequest{})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the server
	close(block)
	srv.Close()
	select {
	case err := <-errc:
		if err != nil && !IsTransient(err) {
			t.Errorf("pending call returned unexpected error class: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never completed after server close")
	}
}

func TestTCPContextCancellation(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		time.Sleep(200 * time.Millisecond)
		return req, nil
	})
	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient(map[quorum.ServerID]string{0: srv.Addr()})
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Call(ctx, 0, wire.PingRequest{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Error("call did not honor context deadline")
	}
}

// TestTCPBothCodecsRoundTrip runs the full request/reply exchange under each
// codec, including an error reply and a payload with nil and empty slices.
func TestTCPBothCodecsRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecBinary, CodecBinaryFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			srv, err := ListenTCPCodec("127.0.0.1:0", &echoHandler{id: 9}, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if srv.Codec() != codec {
				t.Fatalf("server codec %v", srv.Codec())
			}
			client := NewTCPClientCodec(map[quorum.ServerID]string{9: srv.Addr()}, codec)
			defer client.Close()
			resp, err := client.Call(context.Background(), 9, wire.PingRequest{})
			if err != nil {
				t.Fatal(err)
			}
			if resp.(wire.PingReply).ServerID != 9 {
				t.Errorf("ping reply %+v", resp)
			}
			wreq := wire.WriteRequest{Key: "k", Value: []byte{}, Sig: nil}
			resp, err = client.Call(context.Background(), 9, wreq)
			if err != nil {
				t.Fatal(err)
			}
			got := resp.(wire.WriteRequest)
			if got.Key != "k" || len(got.Value) != 0 || len(got.Sig) != 0 {
				t.Errorf("echoed write = %+v", got)
			}
		})
	}
}

// TestTCPServerCloseCancelsHandlerContext locks in the per-connection
// context: a handler blocked on ctx.Done must be released by Close (with
// context.Background it would deadlock Close forever).
func TestTCPServerCloseCancelsHandlerContext(t *testing.T) {
	started := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		close(started)
		<-ctx.Done() // only Close (or conn teardown) can release this
		return nil, ctx.Err()
	})
	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCPClient(map[quorum.ServerID]string{0: srv.Addr()})
	defer client.Close()
	go client.Call(context.Background(), 0, wire.PingRequest{})
	<-started
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: in-flight handler context was not cancelled")
	}
}

// TestTCPStatsAndCoalescing drives concurrent calls through one connection
// and checks the wire counters: every frame accounted for, and flushes +
// coalesced writes summing to frames written (the coalescing invariant).
func TestTCPStatsAndCoalescing(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", &echoHandler{id: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClient(map[quorum.ServerID]string{2: srv.Addr()})
	defer client.Close()
	const goroutines, calls = 16, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := client.Call(context.Background(), 2, wire.ReadRequest{Key: "k"}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const total = goroutines * calls
	cs, ss := client.Stats(), srv.Stats()
	if cs.Conns != 1 || ss.Conns != 1 {
		t.Errorf("conns: client %d server %d, want 1", cs.Conns, ss.Conns)
	}
	if cs.FramesWritten != total || cs.FramesRead != total {
		t.Errorf("client frames: wrote %d read %d, want %d", cs.FramesWritten, cs.FramesRead, total)
	}
	if ss.FramesRead != total || ss.FramesWritten != total {
		t.Errorf("server frames: read %d wrote %d, want %d", ss.FramesRead, ss.FramesWritten, total)
	}
	for name, s := range map[string]TCPStats{"client": cs, "server": ss} {
		if s.Flushes+s.WritesCoalesced != s.FramesWritten {
			t.Errorf("%s: flushes %d + coalesced %d != frames written %d",
				name, s.Flushes, s.WritesCoalesced, s.FramesWritten)
		}
		if s.BytesWritten == 0 || s.BytesRead == 0 {
			t.Errorf("%s: byte counters did not advance: %+v", name, s)
		}
	}
}

// slowSinkConn is a net.Conn stub whose Write succeeds after a fixed delay,
// emulating a socket slower than the producers feeding it.
type slowSinkConn struct {
	net.Conn // panics if any unimplemented method is called
	delay    time.Duration
}

func (c slowSinkConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return len(p), nil
}

// TestFrameWriterCoalesces drives many concurrent writers into a frameWriter
// over a slow sink and asserts that frames actually shared flushes: while
// the flusher is inside one slow Flush, later writers append behind it and
// must ride the next one.
func TestFrameWriterCoalesces(t *testing.T) {
	var stats tcpCounters
	w := newFrameWriter(slowSinkConn{delay: 2 * time.Millisecond}, &stats, vtime.SchedOf(nil))
	defer w.close()
	const writers, frames = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := w.writeFrame([]byte("frame-body")); err != nil {
					t.Errorf("writeFrame: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Wait for the trailing flush to drain before reading counters.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := stats.snapshot()
		if s.FramesWritten == writers*frames && func() bool {
			w.mu.Lock()
			defer w.mu.Unlock()
			return w.bw.Buffered() == 0
		}() {
			if s.WritesCoalesced == 0 {
				t.Errorf("no coalescing under %d concurrent writers: %+v", writers, s)
			}
			if s.Flushes == 0 || s.Flushes+s.WritesCoalesced != s.FramesWritten {
				t.Errorf("flush accounting: %+v", s)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer never drained: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrCrashed, true},
		{ErrDropped, true},
		{ErrPartitioned, true},
		{ErrClosed, true},
		{fmt.Errorf("server 3: %w", ErrCrashed), true},
		{context.DeadlineExceeded, true},
		{context.Canceled, true},
		{errors.New("byzantine reply"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestMemNetworkSetDropProbPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMemNetwork(1).SetDropProb(1.5)
}
