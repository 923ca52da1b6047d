package register

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

// These tests gate the inline dispatch regime (see access.go) on
// properties of the code rather than of the machine: goroutine counts and
// allocation counts on a zero-latency MemNetwork under the wall clock,
// where every member call can finish without waiting.

// inlineFixture builds cells*n replicas on a zero-latency MemNetwork and a
// wall-clock client over them. W below the quorum size makes every write
// complete early, so the drain of its buffered late acks is exercised too.
func inlineFixture(t *testing.T, cells, n, q int, opts Options) (*Client, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(3)
	for i := 0; i < cells*n; i++ {
		net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
	}
	opts.System = uniformSystem(t, n, q)
	opts.Mode = Benign
	opts.Transport = net
	opts.Rand = rand.New(rand.NewSource(5))
	opts.Clock = ts.NewClock(1)
	opts.Cells = cells
	c, err := NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, net
}

// quietGoroutines waits until the goroutine count has held still for two
// pool-retire periods, so workers left behind by earlier tests cannot
// retire in the middle of a measurement, and returns the count.
func quietGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		time.Sleep(2 * poolIdleRetire)
		n := runtime.NumGoroutine()
		if n == last {
			return n
		}
		last = n
	}
	t.Fatalf("goroutine count never settled (last %d)", last)
	return 0
}

var inlineShapes = []struct {
	name  string
	cells int
}{
	{"cells=1", 1},
	{"cells=4", 4},
}

// TestInlineDispatchSpawnsNoGoroutines: with every call inline and every
// late reply already buffered at drain time, 1000 sequential reads and
// writes start no goroutine at all — not even the first time.
func TestInlineDispatchSpawnsNoGoroutines(t *testing.T) {
	const n, q = 25, 13
	for _, shape := range inlineShapes {
		t.Run(shape.name, func(t *testing.T) {
			c, _ := inlineFixture(t, shape.cells, n, q, Options{W: q - 4, EagerRead: true})
			ctx := context.Background()
			keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
			before := quietGoroutines(t)
			for i := 0; i < 1000; i++ {
				k := keys[i%len(keys)]
				if _, err := c.Write(ctx, k, []byte(k)); err != nil {
					t.Fatal(err)
				}
				if rr, err := c.Read(ctx, k); err != nil || !rr.Found {
					t.Fatalf("read %q: %+v, %v", k, rr, err)
				}
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("1000 reads and writes changed the goroutine count: %d -> %d", before, after)
			}
			if st := c.Stats(); st.EarlyCompletions == 0 || st.LateReplies == 0 {
				t.Fatalf("W < q writes never completed early: %+v", st)
			}
		})
	}
}

// TestInlineDispatchReadAllocs pins the allocation count of a steady-state
// read at n=100, q=23 (the benchmark shape; routing across cells adds
// nothing). A regression that brings back a per-call handoff, an eager
// map or a drain goroutine raises it.
func TestInlineDispatchReadAllocs(t *testing.T) {
	const n, q, want = 100, 23, 33
	for _, shape := range inlineShapes {
		t.Run(shape.name, func(t *testing.T) {
			c, _ := inlineFixture(t, shape.cells, n, q, Options{})
			ctx := context.Background()
			if _, err := c.Write(ctx, "k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			quietGoroutines(t)
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := c.Read(ctx, "k"); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > want {
				t.Fatalf("steady-state read: %v allocs/op, want <= %v", allocs, want)
			}
		})
	}
}

// TestInlineDispatchStillHedgesStragglers: a server with configured
// latency is declined by CallNow, so its calls still go to a pooled worker
// and the hedge routes around it while every other member runs inline.
func TestInlineDispatchStillHedgesStragglers(t *testing.T) {
	const (
		n, q          = 5, 3
		stragglerWait = 400 * time.Millisecond
	)
	for _, shape := range inlineShapes {
		t.Run(shape.name, func(t *testing.T) {
			c, net := inlineFixture(t, shape.cells, n, q, Options{Spares: 2, HedgeDelay: 5 * time.Millisecond})
			for cell := 0; cell < shape.cells; cell++ {
				net.SetServerLatency(quorum.ServerID(cell*n), stragglerWait, stragglerWait)
			}
			ctx := context.Background()
			hedged := false
			for i := 0; i < 50 && !hedged; i++ {
				start := time.Now()
				wr, err := c.Write(ctx, "k", []byte("v"))
				if err != nil {
					t.Fatal(err)
				}
				took := time.Since(start)
				if !quorum.Contains(wr.Quorum, 0) {
					continue
				}
				hedged = true
				if took >= stragglerWait/2 {
					t.Fatalf("write with the straggler in its access set took %v", took)
				}
				if wr.Promoted == 0 || !wr.Early {
					t.Fatalf("straggler not hedged around: %+v", wr)
				}
			}
			if !hedged {
				t.Fatal("no access set contained the straggler; test exercised nothing")
			}
			c.WaitDrained()
		})
	}
}
