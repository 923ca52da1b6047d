// Benchmarks regenerating every table and figure of the paper's evaluation
// (one bench per artifact; see DESIGN.md's per-experiment index), validating
// the protocol-level ε empirically, and measuring the protocol hot paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The custom metrics attached to each bench record the headline quantity of
// the corresponding experiment (e.g. exact ε, empirical ε, crossover p).
package pqs_test

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"

	"pqs"
	"pqs/internal/analysis"
	"pqs/internal/chaos"
	"pqs/internal/core"
	"pqs/internal/quorum"
	"pqs/internal/register"
)

// BenchmarkTable1 regenerates the Table 1 bounds summary.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := analysis.Table1(100, 4)
		if len(t.Rows) != 2 {
			b.Fatal("table1 wrong shape")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (ε-intersecting vs threshold vs grid).
func BenchmarkTable2(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := analysis.Table2()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTable3 regenerates Table 3 (dissemination systems).
func BenchmarkTable3(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := analysis.Table3()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTable4 regenerates Table 4 (masking systems), including the
// optimal-threshold scan per row.
func BenchmarkTable4(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := analysis.Table4()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// benchFigure runs one figure generator and reports the first probabilistic
// curve's win range against the baseline via the crossover count.
func benchFigure(b *testing.B, gen func() (*analysis.Figure, *analysis.Figure, error)) {
	b.Helper()
	var pts int
	for i := 0; i < b.N; i++ {
		left, right, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		pts = len(left.Series)*len(left.Series[0].X) + len(right.Series)*len(right.Series[0].X)
	}
	b.ReportMetric(float64(pts), "points")
}

// BenchmarkFigure1 regenerates Figure 1 (failure probabilities,
// ε-intersecting).
func BenchmarkFigure1(b *testing.B) { benchFigure(b, analysis.Figure1) }

// BenchmarkFigure2 regenerates Figure 2 (failure probabilities,
// dissemination, b = √n).
func BenchmarkFigure2(b *testing.B) { benchFigure(b, analysis.Figure2) }

// BenchmarkFigure3 regenerates Figure 3 (failure probabilities, masking,
// b = √n).
func BenchmarkFigure3(b *testing.B) { benchFigure(b, analysis.Figure3) }

// empiricalEpsilon runs cfg as Monte-Carlo write-then-read trials (one
// fresh key per pair) with servers 0..forgers-1 colluding on a fabricated
// value, and returns the checker's measured ε.
func empiricalEpsilon(b *testing.B, cfg chaos.Config, forgers int) float64 {
	cfg.Keys = cfg.Ops
	if forgers > 0 {
		ids := make([]quorum.ServerID, forgers)
		for i := range ids {
			ids[i] = quorum.ServerID(i)
		}
		cfg.Schedule = append(cfg.Schedule, chaos.At(0, chaos.Collude("\x00fabricated", ids...)))
	}
	rep, err := chaos.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rep.Check.Epsilon
}

// BenchmarkEmpiricalEpsilonBenign validates Theorem 3.2 end to end: it runs
// write-then-read trials through the full protocol stack and reports the
// empirical vs exact ε.
func BenchmarkEmpiricalEpsilonBenign(b *testing.B) {
	e, err := core.NewEpsilonIntersecting(36, 8)
	if err != nil {
		b.Fatal(err)
	}
	const trials = 1500
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = empiricalEpsilon(b, chaos.Config{
			System: e, Mode: register.Benign, Ops: trials, Seed: int64(i) + 1,
		}, 0)
	}
	b.ReportMetric(rate, "eps-empirical")
	b.ReportMetric(e.Epsilon(), "eps-exact")
}

// BenchmarkEmpiricalEpsilonDissemination validates Theorem 4.2 with
// colluding forgers whose replies cannot verify.
func BenchmarkEmpiricalEpsilonDissemination(b *testing.B) {
	d, err := core.NewDissemination(36, 10, 6)
	if err != nil {
		b.Fatal(err)
	}
	const trials = 1500
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = empiricalEpsilon(b, chaos.Config{
			System: d, Mode: register.Dissemination, Ops: trials, Seed: int64(i) + 1,
		}, 6)
	}
	b.ReportMetric(rate, "eps-empirical")
	b.ReportMetric(d.Epsilon(), "eps-exact")
}

// BenchmarkEmpiricalEpsilonMasking validates Theorem 5.2 with colluding
// forgers against the k-threshold read.
func BenchmarkEmpiricalEpsilonMasking(b *testing.B) {
	m, err := core.NewMasking(36, 18, 3)
	if err != nil {
		b.Fatal(err)
	}
	const trials = 1500
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = empiricalEpsilon(b, chaos.Config{
			System: m, Mode: register.Masking, K: m.K(), Ops: trials, Seed: int64(i) + 1,
		}, 3)
	}
	b.ReportMetric(rate, "eps-empirical")
	b.ReportMetric(m.Epsilon(), "eps-exact")
}

// BenchmarkAblationMaskingK regenerates the k-threshold sweep.
func BenchmarkAblationMaskingK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AblationMaskingK(100, 38, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBoundTightness regenerates the exact-vs-bound sweep.
func BenchmarkAblationBoundTightness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AblationBoundTightness(900); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDiffusion regenerates (a small slice of) the diffusion
// strengthening curve.
func BenchmarkAblationDiffusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AblationDiffusion(25, 5, 2, 2, 60, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLoadFaultTradeoff regenerates the trade-off table.
func BenchmarkAblationLoadFaultTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AblationLoadFaultTradeoff(); err != nil {
			b.Fatal(err)
		}
	}
}

// newBenchCluster builds the standard protocol benchmark fixture: the
// paper's n=100, ε ≤ 1e-3 construction over an in-memory cluster.
func newBenchCluster(b *testing.B, mode pqs.Mode, byz int) (*pqs.System, *pqs.Client) {
	b.Helper()
	cfg := pqs.Config{N: 100, Epsilon: 1e-3, Mode: mode, B: byz}
	sys, err := pqs.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := pqs.NewCluster(pqs.ClusterConfig{N: sys.N(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < byz; i++ {
		cluster.MakeByzantine(i, []byte("forged"))
	}
	client, err := pqs.NewClient(pqs.ClientConfig{
		System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys, client
}

// BenchmarkProtocolWrite measures one full quorum write (n=100, q=23).
func BenchmarkProtocolWrite(b *testing.B) {
	_, client := newBenchCluster(b, pqs.ModeBenign, 0)
	ctx := context.Background()
	payload := []byte("payload-of-realistic-size-0123456789")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(ctx, "bench", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolRead measures one full quorum read (n=100, q=23).
func BenchmarkProtocolRead(b *testing.B) {
	_, client := newBenchCluster(b, pqs.ModeBenign, 0)
	ctx := context.Background()
	if _, err := client.Write(ctx, "bench", []byte("value")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Read(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolReadMasking measures the threshold-vote read with
// Byzantine servers present (n=100, b=10, q=44).
func BenchmarkProtocolReadMasking(b *testing.B) {
	_, client := newBenchCluster(b, pqs.ModeMasking, 10)
	ctx := context.Background()
	if _, err := client.Write(ctx, "bench", []byte("value")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Read(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// newTailLatencyCluster builds the tail-latency fixture: the paper's n=100,
// ε ≤ 1e-3 construction on a simulated network with latency skew — a fast
// floor of 0.2-1ms, ten 25ms stragglers and one crashed server — and a
// client configured with the given straggler-tolerance knobs.
func newTailLatencyCluster(b *testing.B, spares int, hedge time.Duration, eager bool) *pqs.Client {
	b.Helper()
	sys, err := pqs.New(pqs.Config{N: 100, Epsilon: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := pqs.NewCluster(pqs.ClusterConfig{N: sys.N(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	client, err := pqs.NewClient(pqs.ClientConfig{
		System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 2,
		Tuning: pqs.Tuning{Spares: spares, HedgeDelay: hedge, EagerRead: eager},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := client.Write(context.Background(), "bench", []byte("value")); err != nil {
		b.Fatal(err)
	}
	cluster.SetLatency(200*time.Microsecond, time.Millisecond)
	for id := 0; id < 10; id++ {
		cluster.SetServerLatency(id, 25*time.Millisecond, 25*time.Millisecond)
	}
	cluster.Crash(10)
	return client
}

// benchReadTail runs reads against the tail-latency fixture and reports the
// p50 and p99 read latency in milliseconds.
func benchReadTail(b *testing.B, client *pqs.Client) {
	b.Helper()
	ctx := context.Background()
	durs := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := client.Read(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
		durs = append(durs, time.Since(start))
	}
	b.StopTimer()
	client.WaitDrained()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(durs)-1))
		return float64(durs[idx]) / float64(time.Millisecond)
	}
	b.ReportMetric(pct(0.50), "p50-ms")
	b.ReportMetric(pct(0.99), "p99-ms")
	b.ReportMetric(0, "ns/op") // the percentiles are the headline numbers
}

// BenchmarkReadTailLatencyBaseline is the wait-for-all read under latency
// skew: nearly every quorum samples a straggler, so p50 and p99 sit at the
// straggler's 25ms.
func BenchmarkReadTailLatencyBaseline(b *testing.B) {
	client := newTailLatencyCluster(b, 0, 0, false)
	benchReadTail(b, client)
}

// BenchmarkReadTailLatencyHedged is the same cluster read with oversampled
// access sets (8 spares, 1ms hedge) and early-threshold completion: the read
// returns at quorum-size replies from the fast members and promoted spares,
// leaving stragglers to the background drain.
func BenchmarkReadTailLatencyHedged(b *testing.B) {
	client := newTailLatencyCluster(b, 8, time.Millisecond, true)
	benchReadTail(b, client)
}

// BenchmarkEmpiricalEpsilonBenignHedged re-validates Theorem 3.2 with the
// straggler-tolerant access path switched on: eager reads, spare promotion
// forced by a 5% message-drop rate, full protocol stack. The observed
// non-intersection rate must stay within the construction's closed-form
// bound e^{-ℓ²}, demonstrating that failure-triggered spare promotion
// preserves the ε analysis; the bench fails otherwise.
func BenchmarkEmpiricalEpsilonBenignHedged(b *testing.B) {
	e, err := core.NewEpsilonIntersecting(36, 8)
	if err != nil {
		b.Fatal(err)
	}
	const trials = 1500
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = empiricalEpsilon(b, chaos.Config{
			System: e, Mode: register.Benign, Ops: trials, Seed: int64(i) + 1,
			Tuning:   pqs.Tuning{Spares: 3, EagerRead: true},
			Schedule: chaos.Schedule{chaos.At(0, chaos.Drop(0.05))},
		}, 0)
		if rate > e.EpsilonBound() {
			b.Fatalf("hedged empirical eps %.4f exceeds bound %.4f", rate, e.EpsilonBound())
		}
	}
	b.ReportMetric(rate, "eps-empirical")
	b.ReportMetric(e.Epsilon(), "eps-exact")
	b.ReportMetric(e.EpsilonBound(), "eps-bound")
}

// BenchmarkEmpiricalEpsilonMaskingHedged re-validates Theorem 5.2 with
// colluding forgers AND the eager masking read (return once no rival can
// reach the K threshold) plus drop-forced spare promotion. The fooled+stale
// rate must stay within the masking bound; the bench fails otherwise.
func BenchmarkEmpiricalEpsilonMaskingHedged(b *testing.B) {
	m, err := core.NewMasking(36, 18, 3)
	if err != nil {
		b.Fatal(err)
	}
	const trials = 1500
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = empiricalEpsilon(b, chaos.Config{
			System: m, Mode: register.Masking, K: m.K(), Ops: trials, Seed: int64(i) + 1,
			Tuning:   pqs.Tuning{Spares: 3, EagerRead: true},
			Schedule: chaos.Schedule{chaos.At(0, chaos.Drop(0.03))},
		}, 3)
		if rate > m.EpsilonBound() {
			b.Fatalf("hedged empirical eps %.4f exceeds bound %.4f", rate, m.EpsilonBound())
		}
	}
	b.ReportMetric(rate, "eps-empirical")
	b.ReportMetric(m.Epsilon(), "eps-exact")
	b.ReportMetric(m.EpsilonBound(), "eps-bound")
}

// BenchmarkQuorumPick measures the access strategy sampler.
func BenchmarkQuorumPick(b *testing.B) {
	u, err := quorum.NewUniform(900, 75)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Pick(rng)
	}
}

// BenchmarkExactEpsilon measures the exact hypergeometric ε computations
// that parameter solvers run in inner loops.
func BenchmarkExactEpsilon(b *testing.B) {
	for _, n := range []int{100, 900} {
		b.Run("intersecting-n="+strconv.Itoa(n), func(b *testing.B) {
			e, err := core.NewEpsilonIntersecting(n, n/12)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_ = e.Epsilon()
			}
		})
		b.Run("masking-n="+strconv.Itoa(n), func(b *testing.B) {
			m, err := core.NewMasking(n, n/3, n/30)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_ = m.Epsilon()
			}
		})
	}
}

// BenchmarkTCPRoundTrip measures a write+read pair over the real TCP
// transport with a 5-replica universe.
func BenchmarkTCPRoundTrip(b *testing.B) {
	n := 5
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		srv, err := pqs.ListenAndServe(i, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	tc, err := pqs.Dial(addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer tc.Close()
	sys, err := pqs.New(pqs.Config{N: n, Q: 3})
	if err != nil {
		b.Fatal(err)
	}
	client, err := pqs.NewClient(pqs.ClientConfig{System: sys, Transport: tc, WriterID: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(ctx, "bench", []byte("v")); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Read(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidationLoad regenerates the analytic-vs-empirical load table.
func BenchmarkValidationLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.TableLoadValidation(4000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidationAvailability regenerates the analytic-vs-Monte-Carlo
// failure probability table.
func BenchmarkValidationAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.TableAvailabilityValidation(4000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureScaling regenerates the quorum-size scaling law figure.
func BenchmarkFigureScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.FigureScaling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinQSolvers measures the parameter solvers a deployment runs at
// configuration time.
func BenchmarkMinQSolvers(b *testing.B) {
	b.Run("benign-n=900", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MinQForEpsilon(900, 1e-3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("masking-n=900-b=30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MinQForMasking(900, 30, 1e-3); err != nil {
				b.Fatal(err)
			}
		}
	})
}
