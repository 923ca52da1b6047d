package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/register"
	"pqs/internal/sim"
)

// withSchedule returns cfg with evs appended to its schedule.
func withSchedule(cfg Config, evs ...Event) Config {
	cfg.Schedule = append(append(Schedule(nil), cfg.Schedule...), evs...)
	return cfg
}

// diffReports renders the first difference between two reports of one
// config: the first divergent history event, else the report fields.
func diffReports(a, b *Report) string {
	if d := a.History.Diff(b.History); d != "" {
		return d
	}
	a2, b2 := *a, *b
	a2.History, b2.History = nil, nil
	return fmt.Sprintf("histories equal, reports differ:\n  a: %+v\n  b: %+v", a2, b2)
}

// TestWriteReadDeterministic is the determinism regression for Monte-Carlo
// write-then-read runs: two Runs of one config must produce identical
// Reports — history, verdict and simulated seconds — including under loss
// and failure-triggered spare promotion (drop decisions and latency draws
// are counter-hashed per link, so both replay from the seed even though
// calls are dispatched concurrently). Under Virtual the SimClock folds
// hedge timers into the replayable event order, so the hedged cases
// assert bit-equality too.
func TestWriteReadDeterministic(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(60, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := core.NewMasking(60, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	lat := config.Topology{LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond}
	tcpLat := lat
	tcpLat.Transport = sim.TransportTCPVirtual
	stragglers := func(n int, d time.Duration) Event { return At(0, Straggle(d, ids(0, n)...)) }
	hedged := func(cfg Config, tu config.Tuning, topo config.Topology) Config {
		cfg.Virtual, cfg.Tuning, cfg.Topology = true, tu, topo
		return cfg
	}
	masking := func(ops int, seed int64) Config {
		return trials(mask, register.Masking, mask.K(), mask.B(), ops, seed)
	}

	cases := []struct {
		name string
		cfg  Config
	}{
		{"benign", trials(sys, register.Benign, 0, 0, 150, 11)},
		{"benign-lossy", withSchedule(trials(sys, register.Benign, 0, 0, 150, 12), At(0, Drop(0.08)))},
		{"benign-lossy-spares", func() Config {
			cfg := withSchedule(trials(sys, register.Benign, 0, 0, 150, 13), At(0, Drop(0.08)))
			cfg.Spares = 3
			return cfg
		}()},
		{"masking-byz", masking(120, 14)},
		{"dissem-byz-eager", func() Config {
			cfg := trials(sys, register.Dissemination, 0, 4, 120, 15)
			cfg.EagerRead = true
			return cfg
		}()},

		// Hedged configurations under a SimClock: even runs whose spare
		// promotion is timer-driven must be bit-identical.
		{"virtual-hedged", withSchedule(hedged(trials(sys, register.Benign, 0, 0, 120, 16),
			config.Tuning{Spares: 2, HedgeDelay: 5 * time.Millisecond, EagerRead: true}, lat),
			stragglers(3, 25*time.Millisecond))},
		{"virtual-adaptive-hedged-lossy", withSchedule(hedged(trials(sys, register.Benign, 0, 0, 120, 17),
			config.Tuning{Spares: 3, HedgeDelay: 5 * time.Millisecond, AdaptiveHedge: true, EagerRead: true}, lat),
			stragglers(3, 25*time.Millisecond), At(0, Drop(0.05)))},
		{"virtual-masking-byz-hedged", withSchedule(hedged(masking(100, 18),
			config.Tuning{Spares: 2, HedgeDelay: 4 * time.Millisecond, AdaptiveHedge: true, EagerRead: true}, lat),
			stragglers(2, 20*time.Millisecond))},

		// The real data plane: calls framed by the binary codec, coalesced
		// by the group-commit flusher, carried over virtual-time byte
		// streams. Chunk latency draws and connection-reset faults must
		// replay from the seed exactly like MemNetwork's per-call draws.
		{"tcp-virtual", hedged(trials(sys, register.Benign, 0, 0, 100, 19), config.Tuning{}, tcpLat)},
		{"tcp-virtual-lossy-hedged", withSchedule(hedged(trials(sys, register.Benign, 0, 0, 100, 20),
			config.Tuning{Spares: 3, HedgeDelay: 8 * time.Millisecond, AdaptiveHedge: true, EagerRead: true}, tcpLat),
			stragglers(3, 25*time.Millisecond), At(0, Drop(0.01)))},
		{"tcp-virtual-masking-byz", hedged(masking(80, 21), config.Tuning{}, tcpLat)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireNoOpErrors(t, a)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, divergent reports:\n%s", diffReports(a, b))
			}
		})
	}
}

// TestSimSecondsReplay pins Report.SimSeconds into the replay contract on
// the virtual TCP plane: the clock is read before the data plane is torn
// down, so teardown's scheduler-dependent FIN timers cannot leak into it.
func TestSimSecondsReplay(t *testing.T) {
	mask, err := core.NewMasking(60, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trials(mask, register.Masking, mask.K(), mask.B(), 100, 16)
	cfg.Tuning = config.Tuning{Spares: 2, HedgeDelay: 4 * time.Millisecond, AdaptiveHedge: true, EagerRead: true}
	cfg.Topology = config.Topology{Transport: sim.TransportTCPVirtual, LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond}
	seen := map[float64]int{}
	for i := 0; i < 8; i++ {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireNoOpErrors(t, rep)
		seen[rep.SimSeconds]++
	}
	if len(seen) != 1 {
		t.Fatalf("8 replays of one tcp-virtual config gave %d distinct SimSeconds: %v", len(seen), seen)
	}
}

// TestWallClockHedgedStillSafe pins down the remaining knowingly
// nondeterministic configuration: hedging under the WALL clock (Virtual
// unset), where spare promotion depends on real timers and results may
// legitimately differ between runs — but the run must still complete and
// classify every read. This documents the boundary of the determinism
// contract: wall-clock hedging is best-effort, virtual-clock hedging
// (above) is bit-exact.
func TestWallClockHedgedStillSafe(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(40, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := withSchedule(trials(sys, register.Benign, 0, 0, 60, 21), At(0, Drop(0.05)))
	cfg.Tuning = config.Tuning{Spares: 2, HedgeDelay: 200 * time.Microsecond}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireNoOpErrors(t, rep)
	c := rep.Check
	if c.Correct+c.Stale+c.Fooled+c.Unavailable != c.Reads || c.Reads != cfg.Ops {
		t.Fatalf("classification does not partition reads: %+v", c)
	}
}
