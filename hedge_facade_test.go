package pqs

import (
	"context"
	"testing"
	"time"
)

// TestLocalClusterHedgedRead drives the straggler-tolerance knobs through
// the public facade: a LocalCluster with latency skew and one straggler,
// accessed by a client with spares, hedging and eager reads.
func TestLocalClusterHedgedRead(t *testing.T) {
	sys, err := New(Config{N: 25, Q: 7})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: sys.N(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		System:    sys,
		Transport: cluster.Transport(),
		WriterID:  1,
		Seed:      7,
		// 8 spares: with 8/25 stragglers the eager benign read needs 7 fast
		// repliers among the 15 dispatchable servers, which every seed-7
		// sample satisfies with margin (worst draw leaves 9 fast).
		Tuning: Tuning{Spares: 8, HedgeDelay: 2 * time.Millisecond, EagerRead: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	const stragglerWait = 250 * time.Millisecond
	cluster.SetLatency(50*time.Microsecond, time.Millisecond)
	for id := 0; id < 8; id++ { // enough stragglers that most quorums hit one
		cluster.SetServerLatency(id, stragglerWait, stragglerWait)
	}
	for i := 0; i < 5; i++ {
		start := time.Now()
		rr, err := client.Read(ctx, "k")
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Found || string(rr.Value) != "v" {
			t.Fatalf("read %d returned %+v", i, rr)
		}
		if took >= stragglerWait/2 {
			t.Fatalf("read %d took %v: waited for a straggler", i, took)
		}
	}
	client.WaitDrained()
	if st := client.Stats(); st.EarlyCompletions == 0 && st.SparesPromoted == 0 {
		t.Errorf("straggler knobs had no observable effect: %+v", st)
	}
}

// TestTCPHedgedRead checks the same knobs over real sockets: one TCP
// replica is made a straggler via SetReplyDelay and an eager hedged client
// must not wait for it.
func TestTCPHedgedRead(t *testing.T) {
	const n = 5
	addrs := make(map[int]string, n)
	srvs := make([]*Server, n)
	for i := 0; i < n; i++ {
		srv, err := ListenAndServe(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	tc, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	sys, err := New(Config{N: n, Q: 4})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		System:    sys,
		Transport: tc,
		WriterID:  1,
		Seed:      3,
		Tuning:    Tuning{Spares: 1, HedgeDelay: 5 * time.Millisecond, EagerRead: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	const stragglerWait = 300 * time.Millisecond
	srvs[4].SetReplyDelay(stragglerWait)
	sawEarly := false
	for i := 0; i < 6 && !sawEarly; i++ {
		start := time.Now()
		rr, err := client.Read(ctx, "k")
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Found || string(rr.Value) != "v" {
			t.Fatalf("read %d returned %+v", i, rr)
		}
		if took >= stragglerWait {
			t.Fatalf("read %d took %v: waited for the straggler", i, took)
		}
		sawEarly = sawEarly || rr.Early
	}
	if !sawEarly {
		t.Error("no read completed early over TCP")
	}
	client.WaitDrained()
}
