package pqs

import (
	"context"
	"errors"
	"testing"

	"pqs/internal/quorum"
	"pqs/internal/sim"
	"pqs/internal/wire"
)

func TestLocalClusterDiffusion(t *testing.T) {
	// Small quorums (q=5 of n=25, exact ε ≈ 0.29) miss writes often; after
	// a few gossip rounds no read can miss.
	sys, err := New(Config{N: 25, Q: 5})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cluster.GossipRounds(ctx, 1); err == nil {
		t.Fatal("GossipRounds before EnableDiffusion must fail")
	}
	if err := cluster.EnableDiffusion(2, 3); err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(ctx, "x", []byte("spread me")); err != nil {
		t.Fatal(err)
	}
	if err := cluster.GossipRounds(ctx, 6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r, err := client.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || string(r.Value) != "spread me" {
			t.Fatalf("read %d missed the diffused value: %+v", i, r)
		}
	}
}

func TestLocalClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{N: 0, Seed: 1}); err == nil {
		t.Error("zero-size cluster accepted")
	}
	cluster, err := NewCluster(ClusterConfig{N: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cluster.Replicas()) != 3 {
		t.Error("Replicas() size wrong")
	}
	// Byzantine toggling round-trips.
	cluster.MakeByzantine(0, []byte("evil"))
	cluster.MakeCorrect(0)
	cluster.SetDropProb(0)
}

// TestMultiCellFacade exercises the cells configuration end to end through
// the public API: a 4-cell cluster, keyspace routing, whole-cell crash
// isolation and recovery.
func TestMultiCellFacade(t *testing.T) {
	const cells, n, q = 4, 15, 8
	sys, err := New(Config{N: n, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{Cells: cells, N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.N() != cells*n || cluster.Cells() != cells {
		t.Fatalf("cluster layout %d servers / %d cells", cluster.N(), cluster.Cells())
	}
	client, err := NewClient(ClientConfig{
		System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 1,
		Topology: Topology{Cells: cells},
	})
	if err != nil {
		t.Fatal(err)
	}
	if client.Cells() != cells {
		t.Fatalf("client.Cells() = %d, want %d", client.Cells(), cells)
	}
	ctx := context.Background()
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for _, k := range keys {
		if _, err := client.Write(ctx, k, []byte("v-"+k)); err != nil {
			t.Fatalf("write %q: %v", k, err)
		}
	}
	for _, k := range keys {
		r, err := client.Read(ctx, k)
		if err != nil || !r.Found || string(r.Value) != "v-"+k {
			t.Fatalf("read %q: %+v %v", k, r, err)
		}
	}
	// Crash one whole cell: its keys fail, keys in other cells survive.
	victim := client.CellFor(keys[0])
	cluster.CrashCell(victim)
	if _, err := client.Read(ctx, keys[0]); err == nil {
		t.Fatalf("read from fully-crashed cell %d succeeded", victim)
	}
	for _, k := range keys[1:] {
		if client.CellFor(k) == victim {
			continue
		}
		if r, err := client.Read(ctx, k); err != nil || string(r.Value) != "v-"+k {
			t.Fatalf("cell %d crash leaked into key %q: %+v %v", victim, k, r, err)
		}
	}
	cluster.RecoverCell(victim)
	if r, err := client.Read(ctx, keys[0]); err != nil || string(r.Value) != "v-"+keys[0] {
		t.Fatalf("read after RecoverCell: %+v %v", r, err)
	}
}

// TestCrashCellSingleCell: a cluster built without an explicit cell count
// still has one cell, and CrashCell(0)/RecoverCell(0) address all of it.
func TestCrashCellSingleCell(t *testing.T) {
	sys, err := New(Config{N: 5, Q: 3})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Cells() != 1 {
		t.Fatalf("Cells() = %d, want 1", cluster.Cells())
	}
	client, err := NewClient(ClientConfig{System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cluster.CrashCell(0)
	if _, err := client.Write(ctx, "k", []byte("v")); !errors.Is(err, ErrNoReplies) {
		t.Fatalf("write to a crashed single-cell cluster: err = %v, want ErrNoReplies", err)
	}
	cluster.RecoverCell(0)
	if _, err := client.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("write after RecoverCell(0): %v", err)
	}
}

// TestNewClusterMatchesSim: pqs.NewCluster and sim.NewClusterCfg lay out
// the same replicas for one config, and cell c of the public cluster owns
// exactly servers [c*N, (c+1)*N).
func TestNewClusterMatchesSim(t *testing.T) {
	ctx := context.Background()
	for _, cells := range []int{0, 1, 4} {
		cfg := ClusterConfig{Cells: cells, N: 5, Seed: 1}
		lc, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc := sim.NewClusterCfg(cfg)
		if lc.N() != cfg.Total() || sc.N() != cfg.Total() {
			t.Fatalf("cells=%d: sizes pqs %d, sim %d, want %d", cells, lc.N(), sc.N(), cfg.Total())
		}
		for i, r := range lc.Replicas() {
			if int(r.ID()) != i || sc.Replicas[i].ID() != r.ID() {
				t.Fatalf("cells=%d: replica %d ids pqs %d, sim %d", cells, i, r.ID(), sc.Replicas[i].ID())
			}
		}
		wantCells := max(cells, 1)
		if lc.Cells() != wantCells {
			t.Fatalf("cells=%d: Cells() = %d, want %d", cells, lc.Cells(), wantCells)
		}
		for c := 0; c < wantCells; c++ {
			lc.CrashCell(c)
			for id := 0; id < lc.N(); id++ {
				_, err := lc.Transport().Call(ctx, quorum.ServerID(id), wire.ReadRequest{Key: "k"})
				if crashed, want := err != nil, id/cfg.N == c; crashed != want {
					t.Errorf("cells=%d: after CrashCell(%d) server %d crashed=%v, want %v", cells, c, id, crashed, want)
				}
			}
			lc.RecoverCell(c)
		}
	}
}
