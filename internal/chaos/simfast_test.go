// The long-form tests gate wall-clock speedups, which the race detector's
// slowdown would trip; they run without it (make sim-fast).

//go:build !race

package chaos

import (
	"math"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/register"
	"pqs/internal/sim"
)

// simElapsed is a virtual run's simulated duration.
func simElapsed(rep *Report) time.Duration {
	return time.Duration(rep.SimSeconds * float64(time.Second))
}

// longForm runs cfg under the sim-fast gate: it must simulate at least
// minSim, cover it at least minSpeedup times faster than wall time, and
// keep ε within 3σ of the construction's bound.
func longForm(t *testing.T, label string, cfg Config, bound float64, minSim time.Duration, minSpeedup float64) {
	t.Helper()
	start := time.Now()
	rep, err := Run(cfg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	requireNoOpErrors(t, rep)
	simulated := simElapsed(rep)
	if simulated < minSim {
		t.Fatalf("run simulated only %v; the latency injection is not reaching the clock", simulated)
	}
	speedup := float64(simulated) / float64(wall)
	t.Logf("%s: simulated %v in %v wall: %.0fx speedup (ε=%.4f over %d reads, bound %.3g)",
		label, simulated.Round(time.Millisecond), wall.Round(time.Millisecond),
		speedup, rep.Check.Epsilon, rep.Check.Reads, bound)
	if speedup < minSpeedup {
		t.Fatalf("%s ran only %.1fx faster than wall (%v simulated in %v); want >= %.0fx",
			label, speedup, simulated, wall, minSpeedup)
	}
	// The measurement itself must stay sane: the bound check with slack
	// for the finite trial count (the adversarial version is the scenario
	// matrix; this is the smoke assertion for the long-form run).
	sigma := math.Sqrt(bound * (1 - bound) / float64(cfg.Ops))
	if rep.Check.Epsilon > bound+3*sigma {
		t.Fatalf("long-form ε %.5f far above bound %.5f", rep.Check.Epsilon, bound)
	}
}

// TestSimFastLongFormEpsilon is the CI `sim-fast` gate: the long-form ε
// measurement — hundreds of trials over a 100-server cluster with tens of
// milliseconds of injected per-call latency, stragglers and adaptive
// hedging — which real-time sleeps made far too slow for CI. Under a
// SimClock it must cover its simulated duration at least 50x faster than
// wall time, proving the virtual-time speedup is real and gating
// regressions that would reintroduce wall-clock waits into the simulated
// path.
//
// Run it alone with: make sim-fast
func TestSimFastLongFormEpsilon(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := withSchedule(trials(sys, register.Benign, 0, 0, 400, 42), At(0, Straggle(150*time.Millisecond, ids(0, 5)...)))
	cfg.Virtual = true
	cfg.Tuning = config.Tuning{Spares: 2, HedgeDelay: 80 * time.Millisecond, AdaptiveHedge: true, EagerRead: true}
	cfg.Topology = config.Topology{LatencyMin: 20 * time.Millisecond, LatencyMax: 60 * time.Millisecond}
	longForm(t, "mem", cfg, sys.EpsilonBound(), 10*time.Second, 50)
}

// TestSimFastLongFormEpsilonTCP is the virtual-TCP half of the `sim-fast`
// gate: the long-form ε measurement runs through the REAL data plane —
// binary codec, group-commit flusher, worker pool — over SimClock-scheduled
// byte streams, with per-chunk latency in the tens of milliseconds,
// stragglers and adaptive hedging. The wire path costs real scheduler work
// (every chunk is a timer, every reply crosses read loop → call → gather),
// so the bar is >= 20x rather than the MemNetwork run's 50x; what it gates
// is the same property: simulated seconds must not cost wall seconds, now
// for the code path production actually runs.
//
// Run it alone with: make sim-fast
func TestSimFastLongFormEpsilonTCP(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := withSchedule(trials(sys, register.Benign, 0, 0, 200, 42), At(0, Straggle(80*time.Millisecond, ids(0, 5)...)))
	cfg.Tuning = config.Tuning{Spares: 2, HedgeDelay: 90 * time.Millisecond, AdaptiveHedge: true, EagerRead: true}
	cfg.Topology = config.Topology{Transport: sim.TransportTCPVirtual, LatencyMin: 10 * time.Millisecond, LatencyMax: 30 * time.Millisecond}
	longForm(t, "virtual TCP", cfg, sys.EpsilonBound(), 5*time.Second, 20)
}

// TestAdaptiveHedgeEpsilonPreserved re-measures ε with adaptive hedging in
// effect: the hedged client's failure rate must not exceed the unhedged
// client's beyond finite-sample noise, because spare promotion — whether
// failure-triggered or timer-triggered — only conditions the completed
// access set on liveness, never on returned values (the promotion argument
// in register.Options). Both runs are deterministic (same seed, virtual
// clock); the slack tolerates legitimate future shifts in the sampling
// sequence, not run-to-run randomness.
func TestAdaptiveHedgeEpsilonPreserved(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := withSchedule(trials(sys, register.Benign, 0, 0, 500, 23),
		At(0, Straggle(25*time.Millisecond, ids(0, 4)...), Drop(0.08)))
	base.Virtual = true
	base.Topology = config.Topology{LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond}
	hedged := base
	hedged.Tuning = config.Tuning{Spares: 3, HedgeDelay: 5 * time.Millisecond, AdaptiveHedge: true, EagerRead: true}

	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(hedged)
	if err != nil {
		t.Fatal(err)
	}
	requireNoOpErrors(t, rb)
	requireNoOpErrors(t, rh)
	eb, eh := rb.Check.Epsilon, rh.Check.Epsilon
	sigma := math.Sqrt(math.Max(eb, 0.01) * (1 - eb) / float64(base.Ops))
	t.Logf("ε unhedged %.4f, adaptive-hedged %.4f (3σ slack %.4f), hedged run simulated %v vs %v",
		eb, eh, 3*sigma, simElapsed(rh).Round(time.Millisecond), simElapsed(rb).Round(time.Millisecond))
	if eh > eb+3*sigma {
		t.Fatalf("adaptive hedging degraded ε: %.4f hedged vs %.4f unhedged (+3σ = %.4f)", eh, eb, eb+3*sigma)
	}
	// And it must actually have hedged something: the straggler subset
	// plus drops guarantee promotions, so a zero here means the knob was
	// silently disconnected.
	if rh.SimSeconds >= rb.SimSeconds {
		t.Fatalf("hedged run was not faster in virtual time (%v vs %v); hedging is not engaging",
			simElapsed(rh), simElapsed(rb))
	}
}
