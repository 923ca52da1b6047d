package register_test

// Degraded-mode routing: when the transport's circuit breaker has a quorum
// member open, the access layer must treat it as instantly failed at
// dispatch — promoting a spare at t=0 — instead of burning the hedge delay
// on every read that samples it. This test measures exactly that: tail
// latency under a hung server with hedge timers alone versus hedge timers
// plus the breaker.

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/sim"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// TestBreakerBeatsHedgeOnStalledServer runs the same hedged workload over
// the virtual TCP plane against one stalled (hung, not crashed) server,
// with and without the circuit breaker. Without it, every read that samples
// the stalled member pays the full hedge delay before a spare is promoted;
// with it, after the first call timeouts trip the breaker, dispatch
// fast-fails the member and the spare goes out at t=0 — so the breaker run's
// p99 must beat the hedge-only run's, and must land below the hedge delay.
func TestBreakerBeatsHedgeOnStalledServer(t *testing.T) {
	const (
		n, q       = 9, 3
		reads      = 1000
		keys       = 16
		hedgeDelay = 10 * time.Millisecond
		stalled    = quorum.ServerID(4)
	)

	run := func(lc transport.LifecycleConfig) (p99 time.Duration, downFails uint64) {
		sc := vtime.NewSimClock()
		var durs []time.Duration
		sc.Run(func() {
			cluster := sim.NewClusterCfg(config.Cluster{N: n, Seed: 7, Clock: sc})
			tc, err := sim.NewTCPCluster(cluster, sc, 7, sim.TCPClusterOptions{
				CallTimeout: 50 * time.Millisecond,
				Lifecycle:   lc,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer tc.Close()
			tc.Net.SetLatency(200*time.Microsecond, 800*time.Microsecond)

			sys, err := quorum.NewUniform(n, q)
			if err != nil {
				t.Error(err)
				return
			}
			client, err := register.NewClient(register.Options{
				System:     sys,
				Mode:       register.Benign,
				Transport:  tc.Client,
				Rand:       rand.New(rand.NewSource(21)),
				Clock:      ts.NewClock(1),
				Time:       sc,
				Spares:     2,
				HedgeDelay: hedgeDelay,
				EagerRead:  true,
			})
			if err != nil {
				t.Error(err)
				return
			}

			ctx := context.Background()
			for i := 0; i < keys; i++ {
				if _, err := client.Write(ctx, key(i), []byte{byte(i)}); err != nil {
					t.Errorf("seed write %d: %v", i, err)
					return
				}
			}

			tc.Net.Stall(stalled)
			for i := 0; i < reads; i++ {
				start := sc.Elapsed()
				if _, err := client.Read(ctx, key(i%keys)); err != nil {
					t.Errorf("read %d: %v", i, err)
					return
				}
				durs = append(durs, sc.Elapsed()-start)
			}
			downFails = client.Stats().ServerDownFastFails
			client.WaitDrained()
		})
		if len(durs) != reads {
			t.Fatalf("recorded %d read durations, want %d", len(durs), reads)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return durs[reads*99/100], downFails
	}

	hedgeOnly, _ := run(transport.LifecycleConfig{})
	withBreaker, downFails := run(transport.LifecycleConfig{
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second, // never half-opens within the run
	})

	if hedgeOnly < hedgeDelay {
		t.Fatalf("hedge-only p99 = %v, expected at least the hedge delay %v (stall not biting?)", hedgeOnly, hedgeDelay)
	}
	if withBreaker >= hedgeOnly {
		t.Fatalf("breaker p99 = %v did not beat hedge-only p99 = %v", withBreaker, hedgeOnly)
	}
	if withBreaker >= hedgeDelay {
		t.Fatalf("breaker p99 = %v still pays the hedge delay %v; spares are not promoting at t=0", withBreaker, hedgeDelay)
	}
	if downFails == 0 {
		t.Fatal("breaker run recorded no ServerDownFastFails; dispatch never consulted the breaker")
	}
	t.Logf("p99: hedge-only %v, with breaker %v (%d dispatch fast-fails)", hedgeOnly, withBreaker, downFails)
}

func key(i int) string { return "dk" + string(rune('a'+i%26)) }
