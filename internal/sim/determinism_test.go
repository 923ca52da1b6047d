package sim

import (
	"fmt"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/register"
)

// TestMeasureConsistencyDeterministic is the determinism regression for the
// Monte-Carlo harness: two MeasureConsistency invocations with the same
// seed must produce identical results, including under simulated loss and
// failure-triggered spare promotion (drop decisions and latency draws are
// counter-hashed per destination, so both replay from the seed even though
// calls are dispatched concurrently). Hedge timers used to be the one
// wall-clock input and forced HedgeDelay to zero here; under Virtual the
// vtime.SimClock folds them into the replayable event order, so the
// hedged cases below assert bit-equality too.
func TestMeasureConsistencyDeterministic(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(60, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := core.NewMasking(60, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  ConsistencyConfig
	}{
		{"benign", ConsistencyConfig{System: sys, Mode: register.Benign, Trials: 150, Seed: 11}},
		{"benign-lossy", ConsistencyConfig{System: sys, Mode: register.Benign, Trials: 150, Seed: 12, DropProb: 0.08}},
		{"benign-lossy-spares", ConsistencyConfig{System: sys, Mode: register.Benign, Trials: 150, Seed: 13, DropProb: 0.08, Tuning: config.Tuning{Spares: 3}}},
		{"masking-byz", ConsistencyConfig{System: mask, Mode: register.Masking, K: mask.K(), B: mask.B(), Trials: 120, Seed: 14}},
		{"dissem-byz-eager", ConsistencyConfig{System: sys, Mode: register.Dissemination, B: 4, Trials: 120, Seed: 15, Tuning: config.Tuning{EagerRead: true}}},

		// Hedged configurations under a SimClock — the cases PR 3 had to
		// exclude from this suite because hedge timers read the wall
		// clock. Virtual time puts timer firing into the replayable event
		// order, so even runs whose spare promotion is timer-driven must
		// be bit-identical.
		{"virtual-hedged", ConsistencyConfig{
			System: sys, Mode: register.Benign, Trials: 120, Seed: 16,
			Virtual:    true,
			Tuning:     config.Tuning{Spares: 2, HedgeDelay: 5 * time.Millisecond, EagerRead: true},
			Topology:   config.Topology{LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond},
			StragglerN: 3, StragglerLatency: 25 * time.Millisecond,
		}},
		{"virtual-adaptive-hedged-lossy", ConsistencyConfig{
			System: sys, Mode: register.Benign, Trials: 120, Seed: 17,
			Virtual:    true,
			Tuning:     config.Tuning{Spares: 3, HedgeDelay: 5 * time.Millisecond, AdaptiveHedge: true, EagerRead: true},
			Topology:   config.Topology{LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond},
			StragglerN: 3, StragglerLatency: 25 * time.Millisecond, DropProb: 0.05,
		}},
		{"virtual-masking-byz-hedged", ConsistencyConfig{
			System: mask, Mode: register.Masking, K: mask.K(), B: mask.B(), Trials: 100, Seed: 18,
			Virtual:    true,
			Tuning:     config.Tuning{Spares: 2, HedgeDelay: 4 * time.Millisecond, AdaptiveHedge: true, EagerRead: true},
			Topology:   config.Topology{LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond},
			StragglerN: 2, StragglerLatency: 20 * time.Millisecond,
		}},

		// The REAL data plane: calls framed by the binary codec, coalesced
		// by the group-commit flusher, carried over virtual-time byte
		// streams. Byte-level chunk latency draws and connection-reset
		// faults must replay from the seed exactly like MemNetwork's
		// per-call draws do.
		{"tcp-virtual", ConsistencyConfig{
			System: sys, Mode: register.Benign, Trials: 100, Seed: 19,
			Virtual:  true,
			Topology: config.Topology{Transport: TransportTCPVirtual, LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond},
		}},
		{"tcp-virtual-lossy-hedged", ConsistencyConfig{
			System: sys, Mode: register.Benign, Trials: 100, Seed: 20,
			Virtual:    true,
			Tuning:     config.Tuning{Spares: 3, HedgeDelay: 8 * time.Millisecond, AdaptiveHedge: true, EagerRead: true},
			Topology:   config.Topology{Transport: TransportTCPVirtual, LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond},
			StragglerN: 3, StragglerLatency: 25 * time.Millisecond, DropProb: 0.01,
		}},
		{"tcp-virtual-masking-byz", ConsistencyConfig{
			System: mask, Mode: register.Masking, K: mask.K(), B: mask.B(), Trials: 80, Seed: 21,
			Virtual:  true,
			Topology: config.Topology{Transport: TransportTCPVirtual, LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a, err := MeasureConsistency(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := MeasureConsistency(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("same seed, divergent results:\n%s", diffResults(a, b))
			}
		})
	}
}

// diffResults renders the first divergent field of two consistency results.
func diffResults(a, b ConsistencyResult) string {
	type field struct {
		name string
		av   any
		bv   any
	}
	for _, f := range []field{
		{"Trials", a.Trials, b.Trials},
		{"Correct", a.Correct, b.Correct},
		{"Stale", a.Stale, b.Stale},
		{"Fooled", a.Fooled, b.Fooled},
		{"Rate", a.Rate, b.Rate},
	} {
		if f.av != f.bv {
			return fmt.Sprintf("first divergent field %s: %v vs %v\n  a: %+v\n  b: %+v", f.name, f.av, f.bv, a, b)
		}
	}
	return fmt.Sprintf("results differ but fields match?\n  a: %+v\n  b: %+v", a, b)
}

// TestMeasureConsistencyHedgedStillSafe pins down the remaining knowingly
// nondeterministic configuration: hedging under the WALL clock (Virtual
// unset), where spare promotion depends on real timers and results may
// legitimately differ between runs — but the measurement must still
// complete and stay within sane bounds. This documents the boundary of the
// determinism contract: wall-clock hedging is best-effort, virtual-clock
// hedging (above) is bit-exact.
func TestMeasureConsistencyHedgedStillSafe(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(40, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureConsistency(ConsistencyConfig{
		System: sys, Mode: register.Benign, Trials: 60, Seed: 21,
		Tuning: config.Tuning{Spares: 2, HedgeDelay: 200 * time.Microsecond}, DropProb: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct+res.Stale+res.Fooled != res.Trials {
		t.Fatalf("classification does not partition trials: %+v", res)
	}
}
