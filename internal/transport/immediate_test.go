package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/wire"
)

// errKinds are the sentinel errors a MemNetwork call can fail with.
var errKinds = []error{ErrUnknownServer, ErrPartitioned, ErrCrashed, ErrDropped, context.Canceled}

// sameOutcome reports whether two call outcomes are indistinguishable to
// a caller: equal replies and errors of the same kind and text.
func sameOutcome(r1 any, e1 error, r2 any, e2 error) bool {
	if r1 != r2 || (e1 == nil) != (e2 == nil) {
		return false
	}
	if e1 == nil {
		return true
	}
	for _, k := range errKinds {
		if errors.Is(e1, k) != errors.Is(e2, k) {
			return false
		}
	}
	return e1.Error() == e2.Error()
}

// TestCallNowMatchesCall runs the same call sequence through Call on one
// network and CallNow on its twin (same seed, same configuration): every
// call must be accepted and return exactly what Call returned, including
// the seeded drop verdicts, call by call.
func TestCallNowMatchesCall(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name  string
		setup func(n *MemNetwork)
		ctx   context.Context
		to    quorum.ServerID
		calls int
	}{
		{name: "success", setup: func(*MemNetwork) {}, to: 1, calls: 1},
		{name: "unknown server", setup: func(*MemNetwork) {}, to: 42, calls: 1},
		{name: "partitioned", setup: func(n *MemNetwork) { n.SetPartition(map[quorum.ServerID]int{1: 1}) }, to: 1, calls: 1},
		{name: "crashed", setup: func(n *MemNetwork) { n.Crash(1) }, to: 1, calls: 1},
		{name: "cancelled ctx", setup: func(*MemNetwork) {}, ctx: cancelled, to: 1, calls: 1},
		{name: "drop 0.3", setup: func(n *MemNetwork) { n.SetDropProb(0.3) }, to: 1, calls: 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin := func() *MemNetwork {
				n := NewMemNetwork(7)
				for id := quorum.ServerID(0); id < 3; id++ {
					n.Register(id, &echoHandler{id: int(id)})
				}
				tc.setup(n)
				return n
			}
			viaCall, viaNow := twin(), twin()
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			drops := 0
			for i := 0; i < tc.calls; i++ {
				r1, e1 := viaCall.Call(ctx, tc.to, wire.PingRequest{})
				r2, e2, ok := viaNow.CallNow(ctx, tc.to, wire.PingRequest{})
				if !ok {
					t.Fatalf("call %d: CallNow declined a call with no delay configured", i)
				}
				if !sameOutcome(r1, e1, r2, e2) {
					t.Fatalf("call %d: Call = (%v, %v), CallNow = (%v, %v)", i, r1, e1, r2, e2)
				}
				if errors.Is(e1, ErrDropped) {
					drops++
				}
			}
			if tc.calls > 1 && (drops == 0 || drops == tc.calls) {
				t.Fatalf("drop 0.3 over %d calls dropped %d: the sequence exercised nothing", tc.calls, drops)
			}
		})
	}
}

// TestCallNowDeclinesCallsThatWait configures each source of waiting in
// turn and checks that CallNow declines without side effects: it reports
// ok=false, never consults the hook, and leaves the per-destination call
// counter alone, so the Calls that follow see the same drop sequence as a
// twin network that was never asked.
func TestCallNowDeclinesCallsThatWait(t *testing.T) {
	cases := []struct {
		name  string
		setup func(n *MemNetwork, h *recordingHook)
	}{
		{name: "global latency", setup: func(n *MemNetwork, _ *recordingHook) { n.SetLatency(0, time.Microsecond) }},
		{name: "per-server latency", setup: func(n *MemNetwork, _ *recordingHook) { n.SetServerLatency(1, 0, time.Microsecond) }},
		{name: "link hook", setup: func(n *MemNetwork, h *recordingHook) { n.SetLinkHook(h) }},
		{name: "concurrency cap", setup: func(n *MemNetwork, _ *recordingHook) { n.SetServerConcurrency(4) }},
	}
	const calls = 200
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin := func(h *recordingHook) *MemNetwork {
				n := NewMemNetwork(11)
				n.Register(1, plainEcho())
				n.SetDropProb(0.3)
				tc.setup(n, h)
				return n
			}
			hAsked, hFresh := &recordingHook{}, &recordingHook{}
			asked, fresh := twin(hAsked), twin(hFresh)
			ctx := context.Background()
			for i := 0; i < calls; i++ {
				before := hAsked.calls.Load()
				if _, _, ok := asked.CallNow(ctx, 1, "x"); ok {
					t.Fatalf("call %d: CallNow accepted a call that may wait", i)
				}
				if hAsked.calls.Load() != before {
					t.Fatalf("call %d: declined CallNow consulted the hook", i)
				}
				_, e1 := asked.Call(ctx, 1, "x")
				_, e2 := fresh.Call(ctx, 1, "x")
				if errors.Is(e1, ErrDropped) != errors.Is(e2, ErrDropped) {
					t.Fatalf("call %d: drop verdict %v after a declined CallNow, %v without", i, e1, e2)
				}
			}
			if hAsked.calls.Load() != hFresh.calls.Load() {
				t.Fatalf("hook calls %d with declined CallNows, %d without", hAsked.calls.Load(), hFresh.calls.Load())
			}
		})
	}
}

// healthyMem adds a HealthReporter to a MemNetwork, so Offset builds its
// health-forwarding variant.
type healthyMem struct {
	*MemNetwork
	down quorum.ServerID
}

func (h healthyMem) ServerDown(id quorum.ServerID) bool { return id == h.down }

// callOnly is a Transport with no optional capabilities.
type callOnly struct{ calls atomic.Int64 }

func (c *callOnly) Call(context.Context, quorum.ServerID, any) (any, error) {
	c.calls.Add(1)
	return nil, nil
}

// TestOffsetForwardsImmediate checks that both Offset variants reach the
// inner transport's CallNow in the shifted id space, and decline when the
// inner transport has no CallNow.
func TestOffsetForwardsImmediate(t *testing.T) {
	mem := NewMemNetwork(1)
	for id := quorum.ServerID(0); id < 20; id++ {
		mem.Register(id, &echoHandler{id: int(id)})
	}
	for _, inner := range []Transport{mem, healthyMem{MemNetwork: mem, down: 13}} {
		tr := Offset(inner, 10)
		im, ok := tr.(Immediate)
		if !ok {
			t.Fatalf("Offset(%T) does not implement Immediate", inner)
		}
		resp, err, ok := im.CallNow(context.Background(), 2, wire.PingRequest{})
		if !ok || err != nil {
			t.Fatalf("Offset(%T).CallNow: ok=%v err=%v", inner, ok, err)
		}
		if got := resp.(wire.PingReply).ServerID; got != 12 {
			t.Fatalf("Offset(%T).CallNow(2) reached server %d, want 12", inner, got)
		}
		if hr, isHR := inner.(HealthReporter); isHR {
			if !tr.(HealthReporter).ServerDown(3) || hr.ServerDown(3) {
				t.Fatalf("health-forwarding Offset lost its id shift")
			}
		}
	}
	plain := &callOnly{}
	if _, _, ok := Offset(plain, 10).(Immediate).CallNow(context.Background(), 2, "x"); ok {
		t.Fatal("Offset over a transport without CallNow accepted a call")
	}
	if plain.calls.Load() != 0 {
		t.Fatal("declined CallNow reached the inner transport")
	}
}
