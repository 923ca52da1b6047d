package pqs

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestNewResolvesMinimalQuorum(t *testing.T) {
	sys, err := New(Config{N: 100, Epsilon: 1e-3, Mode: ModeBenign})
	if err != nil {
		t.Fatal(err)
	}
	if sys.QuorumSize() != 23 {
		t.Errorf("q = %d, want 23 (minimal for eps<=1e-3 at n=100)", sys.QuorumSize())
	}
	if sys.Epsilon() > 1e-3 {
		t.Errorf("eps = %v", sys.Epsilon())
	}
	if sys.Epsilon() > sys.EpsilonBound() {
		t.Errorf("exact %v above bound %v", sys.Epsilon(), sys.EpsilonBound())
	}
	if sys.FaultTolerance() != 78 {
		t.Errorf("A = %d", sys.FaultTolerance())
	}
	if math.Abs(sys.Load()-0.23) > 1e-12 {
		t.Errorf("load = %v", sys.Load())
	}
	if sys.Mode() != ModeBenign || sys.B() != 0 || sys.K() != 0 {
		t.Error("mode accessors wrong")
	}
}

func TestNewDefaults(t *testing.T) {
	sys, err := New(Config{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mode() != ModeBenign {
		t.Error("default mode should be benign")
	}
	if sys.Epsilon() > 1e-3 {
		t.Error("default epsilon target should be 1e-3")
	}
}

func TestNewExplicitQ(t *testing.T) {
	sys, err := New(Config{N: 100, Q: 30, Mode: ModeBenign})
	if err != nil {
		t.Fatal(err)
	}
	if sys.QuorumSize() != 30 {
		t.Errorf("q = %d", sys.QuorumSize())
	}
}

func TestNewByzantineModes(t *testing.T) {
	d, err := New(Config{N: 100, Mode: ModeDissemination, B: 10, Epsilon: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if d.QuorumSize() != 25 || d.B() != 10 {
		t.Errorf("dissemination: q=%d b=%d", d.QuorumSize(), d.B())
	}
	m, err := New(Config{N: 100, Mode: ModeMasking, B: 10, Epsilon: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if m.QuorumSize() != 44 || m.K() != 10 {
		t.Errorf("masking: q=%d k=%d", m.QuorumSize(), m.K())
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{N: 0},
		{N: 10, Epsilon: 2},
		{N: 10, Epsilon: -0.5},
		{N: 10, B: -1},
		{N: 10, Mode: Mode(42)},
		{N: 10, Mode: ModeMasking, B: 9, Epsilon: 1e-9}, // unreachable target
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
}

func TestLocalClusterRoundTrip(t *testing.T) {
	sys, err := New(Config{N: 30, Q: 16}) // majority-sized: guaranteed intersection
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: sys.N(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.N() != 30 {
		t.Error("cluster size")
	}
	client, err := NewClient(ClientConfig{System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	r, err := client.Read(ctx, "greeting")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || string(r.Value) != "hello" {
		t.Errorf("read %+v", r)
	}
}

func TestLocalClusterFaultInjection(t *testing.T) {
	sys, err := New(Config{N: 10, Q: 6})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{System: sys, Transport: cluster.Transport(), WriterID: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		cluster.Crash(i)
	}
	if _, err := client.Write(ctx, "x", []byte("v")); !errors.Is(err, ErrNoReplies) {
		t.Errorf("err = %v, want ErrNoReplies", err)
	}
	for i := 0; i < 10; i++ {
		cluster.Recover(i)
	}
	if _, err := client.Write(ctx, "x", []byte("v")); err != nil {
		t.Errorf("after recovery: %v", err)
	}
}

func TestDisseminationEndToEnd(t *testing.T) {
	n, b := 20, 3
	sys, err := New(Config{N: n, Mode: ModeDissemination, B: b, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b; i++ {
		cluster.MakeByzantine(i, []byte("forged"))
	}
	key, err := GenerateWriterKey(1, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add(key.ID, key.Public)
	client, err := NewClient(ClientConfig{
		System: sys, Transport: cluster.Transport(),
		WriterID: key.ID, Key: key, Registry: reg, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "x", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	// Across many reads: never accept the forgery (signatures filter it);
	// occasionally stale is allowed (that is ε).
	for i := 0; i < 100; i++ {
		r, err := client.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if r.Found && string(r.Value) == "forged" {
			t.Fatalf("read %d accepted a forgery", i)
		}
	}
}

func TestMaskingEndToEnd(t *testing.T) {
	n, b := 20, 2
	sys, err := New(Config{N: n, Mode: ModeMasking, B: b, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b; i++ {
		cluster.MakeByzantine(i, []byte("forged"))
	}
	client, err := NewClient(ClientConfig{System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "x", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	fooled := 0
	for i := 0; i < 200; i++ {
		r, err := client.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if r.Found && string(r.Value) == "forged" {
			fooled++
		}
	}
	// The threshold keeps the forgery rate near the analytic ε; with
	// eps = 0.11 (actual for these params) 200 trials should not see a
	// majority of forged reads. A loose bound guards against regressions
	// that disable the threshold entirely.
	if fooled > 60 {
		t.Errorf("fooled %d/200 reads; threshold not effective", fooled)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	n := 5
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		srv, err := ListenAndServe(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	tc, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	sys, err := New(Config{N: n, Q: 3})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{System: sys, Transport: tc, WriterID: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "x", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	r, err := client.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || string(r.Value) != "over tcp" {
		t.Errorf("read %+v", r)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Error("empty addrs accepted")
	}
	if _, err := Dial(map[int]string{-1: "x"}); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := ListenAndServe(-1, "127.0.0.1:0"); err == nil {
		t.Error("negative id accepted")
	}
}

func TestNewClientValidation(t *testing.T) {
	sys, err := New(Config{N: 10, Q: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(ClientConfig{Transport: nil, System: sys}); err == nil {
		t.Error("nil transport accepted")
	}
	cluster, _ := NewCluster(ClusterConfig{N: 10, Seed: 1})
	if _, err := NewClient(ClientConfig{Transport: cluster.Transport()}); err == nil {
		t.Error("nil system accepted")
	}
	// Dissemination without a registry must fail at construction.
	d, err := New(Config{N: 10, Mode: ModeDissemination, B: 1, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(ClientConfig{System: d, Transport: cluster.Transport()}); err == nil {
		t.Error("dissemination client without registry accepted")
	}
}
