package chaos

// The Monte-Carlo ε tests: fault-free write-then-read trials (Keys = Ops,
// so every pair is an independent trial on a fresh key) whose measured
// per-read failure rate must match the exact non-intersection probability
// of Theorems 3.2, 4.2 and 5.2 — two-sided, so a checker that undercounts
// stale reads fails as surely as a protocol that overcounts them.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pqs/internal/combin"
	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/quorum"
	"pqs/internal/register"
)

// forgedValue is the fabricated value the trials' colluding forgers serve.
const forgedValue = "\x00fabricated"

// trials is the Monte-Carlo shape of a run: ops write-then-read pairs, each
// on a fresh key. b > 0 turns servers 0..b-1 into colluding forgers before
// the first pair (the strongest adversary the analysis covers, since
// timestamp order decides among accepted candidates).
func trials(sys quorum.System, mode register.Mode, k, b, ops int, seed int64) Config {
	cfg := Config{System: sys, Mode: mode, K: k, Ops: ops, Keys: ops, Seed: seed}
	if b > 0 {
		cfg.Schedule = Schedule{At(0, Collude(forgedValue, ids(0, b)...))}
	}
	return cfg
}

// tolerance returns a 5-sigma binomial confidence band around eps.
func tolerance(eps float64, reads int) float64 {
	return 5*math.Sqrt(eps*(1-eps)/float64(reads)) + 1e-4
}

// requireNoOpErrors fails the test at the first write or read that
// errored. Check files an errored read as unavailable, which ε leaves out,
// and a failed write followed by a not-found read of a fresh key as
// correct, so a trial test that skipped this would pass on a client that
// fails every operation.
func requireNoOpErrors(t *testing.T, rep *Report) {
	t.Helper()
	for _, op := range rep.History {
		if op.Err != "" {
			t.Fatalf("%s: operation failed: %v", rep.System, op)
		}
	}
}

// exactEpsilonGate is the two-sided calibration gate: the checker's
// measured ε must lie within 5σ of the exact ε on either side.
func exactEpsilonGate(c CheckResult, exact float64) error {
	if c.Reads == 0 {
		return errors.New("no reads")
	}
	if diff := math.Abs(c.Epsilon - exact); diff > tolerance(exact, c.Reads) {
		return fmt.Errorf("measured ε %.5f vs exact ε %.5f over %d reads: |diff| %.5f outside the 5σ band %.5f",
			c.Epsilon, exact, c.Reads, diff, tolerance(exact, c.Reads))
	}
	return nil
}

// runExact runs cfg, checks it against the exact ε both ways (the
// one-sided bound test at Bound = exact, and the two-sided gate) and pins
// its stale+fooled count.
func runExact(t *testing.T, cfg Config, exact float64, wantBad int) *Report {
	t.Helper()
	if exact < 0.005 || exact > 0.5 {
		t.Fatalf("test parameters degenerate: exact ε = %v", exact)
	}
	cfg.Bound = exact
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireNoOpErrors(t, rep)
	c := rep.Check
	t.Logf("%s: reads=%d correct=%d stale=%d fooled=%d ε=%.5f exact=%.5f",
		rep.System, c.Reads, c.Correct, c.Stale, c.Fooled, c.Epsilon, exact)
	if err := exactEpsilonGate(c, exact); err != nil {
		t.Error(err)
	}
	if !c.Pass {
		t.Errorf("one-sided bound test failed: p=%.3g, violations %v", c.PValue, c.Violations)
	}
	// The exact counts replay from the seed; a change here means the
	// sampling sequence or the classifier moved and must be justified.
	if got := c.Stale + c.Fooled; got != wantBad {
		t.Errorf("stale+fooled = %d, want %d for seed %d", got, wantBad, cfg.Seed)
	}
	return rep
}

func TestEmpiricalEpsilonBenign(t *testing.T) {
	// Theorem 3.2: the stale-read rate of the real protocol must match the
	// exact non-intersection probability of the construction.
	e, err := core.NewEpsilonIntersecting(36, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep := runExact(t, trials(e, register.Benign, 0, 0, 4000, 1), e.Epsilon(), 422)
	if rep.Check.Fooled != 0 {
		t.Errorf("benign run reported %d fooled reads", rep.Check.Fooled)
	}
}

func TestEmpiricalEpsilonDissemination(t *testing.T) {
	// Theorem 4.2 with b colluding forgers whose replies cannot verify.
	n, q, b := 36, 10, 6
	d, err := core.NewDissemination(n, q, b)
	if err != nil {
		t.Fatal(err)
	}
	rep := runExact(t, trials(d, register.Dissemination, 0, b, 4000, 2), d.Epsilon(), 213)
	// Self-verifying data: fabrications must never be accepted.
	if rep.Check.Fooled != 0 {
		t.Errorf("dissemination reads accepted %d forgeries", rep.Check.Fooled)
	}
}

func TestEmpiricalEpsilonMasking(t *testing.T) {
	// Theorem 5.2: the failure rate of the threshold read protocol must
	// match the exact masking error probability; fooled reads count toward
	// it.
	n, q, b := 36, 18, 3
	m, err := core.NewMasking(n, q, b)
	if err != nil {
		t.Fatal(err)
	}
	rep := runExact(t, trials(m, register.Masking, m.K(), b, 4000, 3), m.Epsilon(), 25)
	if c := rep.Check; c.Correct+c.Stale+c.Fooled != c.Reads {
		t.Errorf("accounting broken: %+v", c)
	}
}

func TestMaskingFooledMatchesHypergeometricTail(t *testing.T) {
	// The fooled fraction alone must match P(|Q∩B| >= k) (forged candidates
	// carry an overwhelming stamp, so they win exactly when they pass k).
	n, q, b := 25, 15, 4
	m, err := core.NewMasking(n, q, b)
	if err != nil {
		t.Fatal(err)
	}
	exact := combin.HypergeomTailGE(n, b, q, m.K())
	rep, err := Run(trials(m, register.Masking, m.K(), b, 4000, 4))
	if err != nil {
		t.Fatal(err)
	}
	requireNoOpErrors(t, rep)
	fooledRate := float64(rep.Check.Fooled) / float64(rep.Check.Reads)
	if diff := math.Abs(fooledRate - exact); diff > tolerance(exact, rep.Check.Reads) {
		t.Errorf("fooled rate %v vs P(X>=k) %v", fooledRate, exact)
	}
}

// TestExactEpsilonGateRejectsUndercount is the negative test of the
// two-sided gate: rewriting half of a run's stale reads as correct plants
// a checker that undercounts. The one-sided bound test cannot see it (a
// lower ε only passes more easily); the exact-ε gate must reject it.
func TestExactEpsilonGateRejectsUndercount(t *testing.T) {
	e, err := core.NewEpsilonIntersecting(36, 8)
	if err != nil {
		t.Fatal(err)
	}
	exact := e.Epsilon()
	rep, err := Run(trials(e, register.Benign, 0, 0, 4000, 1))
	if err != nil {
		t.Fatal(err)
	}
	requireNoOpErrors(t, rep)
	cfg := CheckConfig{Mode: register.Benign, Bound: exact}
	if err := exactEpsilonGate(Check(rep.History, cfg), exact); err != nil {
		t.Fatalf("honest history rejected: %v", err)
	}

	// With Keys = Ops every read directly follows the write of its key.
	planted := append(History(nil), rep.History...)
	rewritten, stale := 0, 0
	for i := 1; i < len(planted); i += 2 {
		w, r := planted[i-1], &planted[i]
		if r.Found && r.Value == w.Value && r.Stamp == w.Stamp {
			continue
		}
		stale++
		if stale%2 == 0 {
			r.Found, r.Value, r.Stamp = true, w.Value, w.Stamp
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Fatal("run produced no stale reads to hide")
	}
	c := Check(planted, cfg)
	if c.Stale != rep.Check.Stale-rewritten {
		t.Fatalf("planted history has %d stale reads, want %d", c.Stale, rep.Check.Stale-rewritten)
	}
	if !c.Pass {
		t.Errorf("one-sided test failed the undercount (p=%.3g); it should be blind to it", c.PValue)
	}
	if err := exactEpsilonGate(c, exact); err == nil {
		t.Fatalf("gate accepted a history with %d of %d stale reads hidden (ε %.5f vs exact %.5f)",
			rewritten, stale, c.Epsilon, exact)
	} else {
		t.Logf("undercount rejected: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	e, _ := core.NewEpsilonIntersecting(10, 3)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero ops", Config{System: e, Mode: register.Benign}},
		{"nil system", Config{Mode: register.Benign, Ops: 1}},
		{"bad mode", Config{System: e, Mode: register.Mode(0), Ops: 1}},
		{"bad transport", Config{System: e, Mode: register.Benign, Ops: 1, Topology: config.Topology{Transport: "carrier-pigeon"}}},
	} {
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestConsistencyUnderCrashes crashes a random tenth of a majority system
// between each trial's write and its read: even pairs write on a healthy
// cluster, and the next pair reads that key back (ReadLag 1) after the
// crash. Crashed members simply do not reply; the read works with what
// answers, and majority overlap keeps the failure rate small.
func TestConsistencyUnderCrashes(t *testing.T) {
	sys, err := quorum.NewMajority(15)
	if err != nil {
		t.Fatal(err)
	}
	const n, crashP = 300, 0.1
	rng := rand.New(rand.NewSource(9))
	var sched Schedule
	for i := 0; i < n; i++ {
		var down []quorum.ServerID
		for id := 0; id < sys.N(); id++ {
			if rng.Float64() < crashP {
				down = append(down, quorum.ServerID(id))
			}
		}
		sched = append(sched, At(2*i+1, Crash(down...)), At(2*i+2, Recover(down...)))
	}
	rep, err := Run(Config{
		System: sys, Mode: register.Benign, Ops: 2 * n, Keys: 2 * n, ReadLag: 1,
		Seed: 9, Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A read whose whole access set is down fails for lack of replies and
	// counts as unavailable; any other operation error is a fault.
	for _, op := range rep.History {
		if op.Err != "" && (op.Kind != OpRead || !strings.Contains(op.Err, register.ErrNoReplies.Error())) {
			t.Fatalf("operation failed: %v", op)
		}
	}
	c := rep.Check
	t.Logf("reads=%d correct=%d stale=%d unavailable=%d ε=%.4f", c.Reads, c.Correct, c.Stale, c.Unavailable, c.Epsilon)
	if c.Correct+c.Stale+c.Fooled+c.Unavailable != c.Reads {
		t.Errorf("accounting broken: %+v", c)
	}
	if len(c.Violations) != 0 {
		t.Errorf("violations: %v", c.Violations)
	}
	// All reads unavailable would mean the harness learned nothing.
	if c.Unavailable == c.Reads {
		t.Errorf("all reads unavailable: %+v", c)
	}
	if c.Epsilon > 0.2 {
		t.Errorf("failure rate %v implausibly high for majority at p=%v", c.Epsilon, crashP)
	}
}
