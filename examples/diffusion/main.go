// Diffusion demonstrates the strengthening mechanism of Section 1.1:
// pairing probabilistic quorums with lazy epidemic propagation. Reads that
// happen immediately after a write miss it with probability ~ε; once the
// update has gossiped through the cluster, no quorum choice can miss it.
// The demo measures the stale-read rate as a function of gossip rounds
// between write and read.
package main

import (
	"context"
	"fmt"
	"os"

	"pqs"
)

const (
	n      = 49
	q      = 7 // deliberately tiny quorums: exact eps ~ 0.33
	trials = 300
	fanout = 1
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "diffusion:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	sys, err := pqs.New(pqs.Config{N: n, Q: q})
	if err != nil {
		return err
	}
	fmt.Printf("construction: %s, exact eps = %.3f\n", sys.Name(), sys.Epsilon())
	fmt.Printf("%-14s %-12s %s\n", "gossip rounds", "stale reads", "rate")

	for rounds := 0; rounds <= 5; rounds++ {
		stale := 0
		for trial := 0; trial < trials; trial++ {
			// Fresh cluster per trial so earlier gossip does not leak in.
			cluster, err := pqs.NewCluster(pqs.ClusterConfig{N: n, Seed: int64(rounds*trials + trial)})
			if err != nil {
				return err
			}
			if err := cluster.EnableDiffusion(fanout, int64(trial)+99); err != nil {
				return err
			}
			client, err := pqs.NewClient(pqs.ClientConfig{
				System:    sys,
				Transport: cluster.Transport(),
				WriterID:  1,
				Seed:      int64(rounds*trials+trial) + 1,
			})
			if err != nil {
				return err
			}
			want := fmt.Sprintf("v%d", trial)
			if _, err := client.Write(ctx, "x", []byte(want)); err != nil {
				return err
			}
			if err := cluster.GossipRounds(ctx, rounds); err != nil {
				return err
			}
			r, err := client.Read(ctx, "x")
			if err != nil {
				return err
			}
			if !r.Found || string(r.Value) != want {
				stale++
			}
		}
		fmt.Printf("%-14d %-12d %.3f\n", rounds, stale, float64(stale)/float64(trials))
	}
	fmt.Println("\nwith updates dispersed in time, diffusion drives the effective eps toward zero")
	fmt.Println("(Section 1.1), while quorum reads stay fast on the critical path.")
	return nil
}
