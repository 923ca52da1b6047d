package main

import (
	"bytes"
	"context"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"pqs"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/wire"
)

// memStack builds a fresh n=100, q=23 MemNetwork cluster; with t non-nil
// every replica sits behind a span handler.
func memStack(t *testing.T, tr *tracer) (*pqs.System, transport.Transport) {
	t.Helper()
	sys, err := pqs.New(pqs.Config{N: closedN, Q: closedQ})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNetwork(7)
	for i := 0; i < closedN; i++ {
		var h transport.Handler = replica.New(quorum.ServerID(i))
		if tr != nil {
			h = tracedHandler{inner: h, t: tr}
		}
		net.Register(quorum.ServerID(i), h)
	}
	return sys, net
}

// TestTracedClientMatchesUntraced pins that the span wrappers leave the
// protocol's path unchanged: a traced and an untraced client with one seed
// choose identical access sets and return identical results, both on the
// in-place sampling path and on the spare-sampling path.
func TestTracedClientMatchesUntraced(t *testing.T) {
	for _, spares := range []int{0, 2} {
		plainSys, plainNet := memStack(t, nil)
		tr := newTracer()
		tracedSys, tracedNet := memStack(t, tr)
		plain, err := newRegisterClient(plainSys, plainNet, 42, ts.NewClock(1), spares)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := newRegisterClient(traceSystem(tracedSys, tr), traceTransport(tracedNet, tr), 42, ts.NewClock(1), spares)
		if err != nil {
			t.Fatal(err)
		}
		agg := tr.newAgg()
		ctx := context.Background()
		for i := 0; i < 200; i++ {
			key := "k" + string(rune('a'+i%7))
			opCtx, op := tr.begin(ctx, time.Now())
			if i%3 == 0 {
				val := []byte{byte(i)}
				a, errA := plain.Write(ctx, key, val)
				b, errB := traced.Write(opCtx, key, val)
				agg.end(op, time.Now())
				if errA != nil || errB != nil {
					t.Fatalf("spares=%d op %d: write errors %v / %v", spares, i, errA, errB)
				}
				if !reflect.DeepEqual(a.Quorum, b.Quorum) || a.Stamp != b.Stamp || len(a.Acked) != len(b.Acked) {
					t.Fatalf("spares=%d op %d: write diverged: %+v vs %+v", spares, i, a, b)
				}
				continue
			}
			a, errA := plain.Read(ctx, key)
			b, errB := traced.Read(opCtx, key)
			agg.end(op, time.Now())
			if errA != nil || errB != nil {
				t.Fatalf("spares=%d op %d: read errors %v / %v", spares, i, errA, errB)
			}
			if !reflect.DeepEqual(a.Quorum, b.Quorum) || a.Found != b.Found || a.Stamp != b.Stamp ||
				!bytes.Equal(a.Value, b.Value) || a.Replies != b.Replies || a.Vouchers != b.Vouchers {
				t.Fatalf("spares=%d op %d: read diverged: %+v vs %+v", spares, i, a, b)
			}
		}
		tot := tr.totals()
		if tot.ops != 200 || tot.calls != 200*closedQ || tr.picks.Load() != 200 || tr.handles.Load() != 200*closedQ {
			t.Fatalf("spares=%d: spans ops=%d calls=%d picks=%d handles=%d", spares, tot.ops, tot.calls, tr.picks.Load(), tr.handles.Load())
		}
	}
}

// plainSystem is a quorum.System with none of the optional sampling
// interfaces.
type plainSystem struct{ quorum.System }

// TestWrappersForwardOptionalInterfaces pins that each span wrapper
// implements an optional interface exactly when what it wraps does.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	sys, err := pqs.New(pqs.Config{N: closedN, Q: closedQ})
	if err != nil {
		t.Fatal(err)
	}
	ws := traceSystem(sys, tr)
	if _, ok := ws.(quorum.InplacePicker); !ok {
		t.Error("traced system lost quorum.InplacePicker")
	}
	if _, ok := ws.(quorum.SpareSampler); !ok {
		t.Error("traced system lost quorum.SpareSampler")
	}
	bare := traceSystem(plainSystem{sys}, tr)
	if _, ok := bare.(quorum.InplacePicker); ok {
		t.Error("traced plain system claims quorum.InplacePicker")
	}
	if _, ok := bare.(quorum.SpareSampler); ok {
		t.Error("traced plain system claims quorum.SpareSampler")
	}
	tcp, err := pqs.Dial(map[int]string{0: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if _, ok := traceTransport(tcp, tr).(transport.HealthReporter); !ok {
		t.Error("traced TCP client lost transport.HealthReporter")
	}
	if _, ok := traceTransport(transport.NewMemNetwork(1), tr).(transport.HealthReporter); ok {
		t.Error("traced MemNetwork claims transport.HealthReporter")
	}
}

func shortRun(t *testing.T, fault func(*stack)) *report {
	t.Helper()
	r, err := runClosed(closedConfig{plane: planeMem, seed: 3, measure: 400 * time.Millisecond, fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestChecksPassOnCorrectReplicas is the control for the negative tests
// below: a fault-free run passes both checks.
func TestChecksPassOnCorrectReplicas(t *testing.T) {
	if r := shortRun(t, nil); !r.correct || r.failed != 0 {
		t.Fatalf("fault-free run failed its checks: %v", r.notes)
	}
}

// TestStaleReplicasTripStalenessCheck: half the replicas acknowledge
// writes without applying them, so reads miss completed writes far more
// often than ε allows.
func TestStaleReplicasTripStalenessCheck(t *testing.T) {
	r := shortRun(t, func(s *stack) {
		for _, rep := range s.reps[:closedN/2] {
			rep.SetBehavior(replica.Stale{})
		}
	})
	if r.correct || !hasNote(r, "staleness check") {
		t.Fatalf("stale replicas passed the staleness check: %v", r.notes)
	}
	if hasNote(r, "value check") {
		t.Fatalf("stale replicas tripped the value check, which they do not violate: %v", r.notes)
	}
}

// plantedStamp serves the stored value under a stamp from the future,
// so the value no longer matches the stamp a read returns.
type plantedStamp struct{}

func (plantedStamp) OnRead(_ string, correct wire.ReadReply) (wire.ReadReply, error) {
	if correct.Found {
		correct.Stamp.Counter += 1 << 30
	}
	return correct, nil
}

func (plantedStamp) OnWrite(wire.WriteRequest) (bool, error) { return true, nil }

// TestPlantedMismatchTripsValueCheck: one replica pairs values with stamps
// they were not written under; reads that sample it return the mismatch.
func TestPlantedMismatchTripsValueCheck(t *testing.T) {
	r := shortRun(t, func(s *stack) { s.reps[0].SetBehavior(plantedStamp{}) })
	if r.correct || !hasNote(r, "value check") {
		t.Fatalf("planted value/stamp mismatch passed the value check: %v", r.notes)
	}
}

func hasNote(r *report, s string) bool {
	for _, n := range r.notes {
		if strings.Contains(n, "CHECK FAILED: "+s) {
			return true
		}
	}
	return false
}

// TestTracedRunCounts pins the acceptance counts of a fault-free traced
// run: every op is exactly q calls and q handles, one pick.
func TestTracedRunCounts(t *testing.T) {
	r, err := runClosed(closedConfig{plane: planeMem, seed: 5, measure: 600 * time.Millisecond, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct {
		t.Fatalf("traced run failed its checks: %v", r.notes)
	}
	for name, want := range map[string]float64{"transport.calls_per_op": closedQ, "quorum.picks_per_op": 1, "transport.err_per_op": 0} {
		if got := r.values[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, d := range perLayer {
		if _, ok := r.values[d.name]; !ok && !popOnly(d.name) && d.name != "transport.frames_per_op" && d.name != "transport.bytes_per_op" {
			t.Errorf("traced mem-mixed run did not measure %s", d.name)
		}
	}
}

func popOnly(name string) bool { return strings.HasPrefix(name, "load.") }

func TestValueEncoding(t *testing.T) {
	v := encodeValue(nil, 2, 1999, 123456)
	if len(v) != valueSize || decodeSeq(v) != 123456 {
		t.Fatalf("encodeValue = %q (len %d), seq %d", v, len(v), decodeSeq(v))
	}
	if decodeSeq([]byte("short")) != 0 {
		t.Fatal("malformed value decoded a sequence number")
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if quantile(xs, 0.5) != 5 || quantile(xs, 0.99) != 10 || quantile(nil, 0.5) != 0 {
		t.Fatal("nearest-rank quantile")
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("median")
	}
}

// TestProfileShares decodes a real CPU profile of register traffic and
// finds the register and replica packages in it.
func TestProfileShares(t *testing.T) {
	sys, net := memStack(t, nil)
	cl, err := newRegisterClient(sys, net, 1, ts.NewClock(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	ctx := context.Background()
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := cl.Write(ctx, "k", []byte("v")); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares.samples == 0 || shares.share["cpu.register"] <= 0 || shares.share["cpu.replica"] <= 0 {
		t.Fatalf("profile shares: %d samples, %v", shares.samples, shares.share)
	}
	for m, v := range shares.share {
		if v < 0 || v > 1 {
			t.Errorf("%s share %v outside [0,1]", m, v)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"pqs/internal/replica.(*Replica).Handle": "pqs/internal/replica",
		"runtime.schedule":                       "runtime",
		"pqs.(*System).PickInto":                 "pqs",
		"main.main":                              "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}
