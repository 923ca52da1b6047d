package pqs

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

func lockFixture(t *testing.T) (*LockService, *LockService) {
	t.Helper()
	// Majority-sized quorums make the lock deterministic for unit testing;
	// the probabilistic behavior is covered by the voting example and the
	// sim package.
	sys, err := New(Config{N: 15, Q: 8})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewClient(ClientConfig{System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(ClientConfig{System: sys, Transport: cluster.Transport(), WriterID: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := NewLockService(c1, "")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewLockService(c2, "")
	if err != nil {
		t.Fatal(err)
	}
	return l1, l2
}

func TestLockAcquireReleaseCycle(t *testing.T) {
	l1, l2 := lockFixture(t)
	ctx := context.Background()

	ok, err := l1.TryAcquire(ctx, "res", "alice")
	if err != nil || !ok {
		t.Fatalf("acquire: %v %v", ok, err)
	}
	// Same owner reacquires; different owner is refused.
	if ok, _ := l1.TryAcquire(ctx, "res", "alice"); !ok {
		t.Error("reacquire by holder failed")
	}
	if ok, _ := l2.TryAcquire(ctx, "res", "bob"); ok {
		t.Error("second owner acquired a held lock")
	}
	holder, held, err := l2.Holder(ctx, "res")
	if err != nil || !held || holder != "alice" {
		t.Errorf("holder = %q %v %v", holder, held, err)
	}
	// Wrong owner cannot release.
	if ok, _ := l2.Release(ctx, "res", "bob"); ok {
		t.Error("non-holder released the lock")
	}
	if ok, err := l1.Release(ctx, "res", "alice"); err != nil || !ok {
		t.Fatalf("release: %v %v", ok, err)
	}
	// Now bob can take it.
	if ok, _ := l2.TryAcquire(ctx, "res", "bob"); !ok {
		t.Error("acquire after release failed")
	}
}

func TestLockReleaseUnheld(t *testing.T) {
	l1, _ := lockFixture(t)
	ctx := context.Background()
	if ok, err := l1.Release(ctx, "never-locked", "anyone"); err != nil || !ok {
		t.Errorf("releasing a free lock should be a no-op success: %v %v", ok, err)
	}
	if _, held, _ := l1.Holder(ctx, "never-locked"); held {
		t.Error("free lock reported held")
	}
}

func TestLockValidation(t *testing.T) {
	if _, err := NewLockService(nil, ""); err == nil {
		t.Error("nil client accepted")
	}
	l1, _ := lockFixture(t)
	if _, err := l1.TryAcquire(context.Background(), "res", ""); err == nil {
		t.Error("empty owner accepted")
	}
}

func TestLockNamespacesAreIndependent(t *testing.T) {
	l1, _ := lockFixture(t)
	ctx := context.Background()
	if ok, _ := l1.TryAcquire(ctx, "a", "alice"); !ok {
		t.Fatal("acquire a")
	}
	if ok, _ := l1.TryAcquire(ctx, "b", "bob"); !ok {
		t.Error("lock on a blocked lock on b")
	}
}

// lockSimFixture builds two lock services (writers alice=1, bob=2) over a
// latency-injected MemNetwork driven by a SimClock, all randomness seeded,
// so every acquire/release interleaving replays identically.
func lockSimFixture(t *testing.T, sc *vtime.SimClock) (*LockService, *LockService) {
	t.Helper()
	const n, q = 9, 5
	net := transport.NewMemNetwork(17)
	net.SetClock(sc)
	net.SetLatency(1*time.Millisecond, 5*time.Millisecond)
	for i := 0; i < n; i++ {
		net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
	}
	sys, err := New(Config{N: n, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(writer uint32) *LockService {
		cl, err := register.NewClient(register.Options{
			System: sys, Mode: ModeBenign, Transport: net,
			Rand:  rand.New(rand.NewSource(int64(writer))),
			Clock: ts.NewClock(writer),
			Time:  sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLockService(cl, "")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	return mk(1), mk(2)
}

// TestLockSimClockInterleavings drives an acquire/release/reacquire
// interleaving between two owners on a virtual clock and checks every
// decision point; majority quorums make each outcome deterministic.
func TestLockSimClockInterleavings(t *testing.T) {
	sc := vtime.NewSimClock()
	sc.Run(func() {
		alice, bob := lockSimFixture(t, sc)
		ctx := context.Background()
		step := func(what string, got, want bool, err error) {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got != want {
				t.Fatalf("%s = %v, want %v", what, got, want)
			}
		}
		ok, err := alice.TryAcquire(ctx, "res", "alice")
		step("alice acquire", ok, true, err)
		ok, err = bob.TryAcquire(ctx, "res", "bob")
		step("bob acquire while held", ok, false, err)
		ok, err = bob.Release(ctx, "res", "bob")
		step("bob release foreign lock", ok, false, err)
		// The foreign-holder path writes the record back unchanged: alice
		// must still be the visible holder.
		holder, held, err := bob.Holder(ctx, "res")
		if err != nil || !held || holder != "alice" {
			t.Fatalf("holder after failed release = %q %v %v", holder, held, err)
		}
		ok, err = alice.Release(ctx, "res", "alice")
		step("alice release", ok, true, err)
		ok, err = bob.TryAcquire(ctx, "res", "bob")
		step("bob acquire after release", ok, true, err)
		ok, err = alice.TryAcquire(ctx, "res", "alice")
		step("alice reacquire while bob holds", ok, false, err)
		ok, err = bob.Release(ctx, "res", "bob")
		step("bob release", ok, true, err)
		ok, err = alice.TryAcquire(ctx, "res", "alice")
		step("alice reacquire after bob", ok, true, err)
		// Releasing an already-free lock stays a no-op success.
		ok, err = alice.Release(ctx, "res", "alice")
		step("alice release", ok, true, err)
		ok, err = bob.Release(ctx, "res", "bob")
		step("bob release free lock", ok, true, err)
	})
}

// TestLockSimClockDeterministic replays the same interleaving twice and
// requires identical virtual-time traces: the RMW release path sleeps and
// samples only from injected clocks and seeded rngs.
func TestLockSimClockDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var trace []time.Duration
		sc := vtime.NewSimClock()
		sc.Run(func() {
			alice, bob := lockSimFixture(t, sc)
			ctx := context.Background()
			mark := func() { trace = append(trace, sc.Elapsed()) }
			if ok, err := alice.TryAcquire(ctx, "res", "alice"); err != nil || !ok {
				t.Fatalf("acquire: %v %v", ok, err)
			}
			mark()
			if ok, err := bob.TryAcquire(ctx, "res", "bob"); err != nil || ok {
				t.Fatalf("bob acquire: %v %v", ok, err)
			}
			mark()
			if ok, err := alice.Release(ctx, "res", "alice"); err != nil || !ok {
				t.Fatalf("release: %v %v", ok, err)
			}
			mark()
			if ok, err := bob.TryAcquire(ctx, "res", "bob"); err != nil || !ok {
				t.Fatalf("bob reacquire: %v %v", ok, err)
			}
			mark()
		})
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d at %v vs %v: lock schedule is not replaying", i, a[i], b[i])
		}
	}
	if a[len(a)-1] == 0 {
		t.Fatal("virtual clock never advanced; latency injection is not active")
	}
}
