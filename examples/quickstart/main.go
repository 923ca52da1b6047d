// Quickstart: construct a probabilistic quorum system, run an in-process
// cluster, write and read a replicated variable, and watch the system
// shrug off a number of crashes that would disable any strict quorum
// system.
package main

import (
	"context"
	"fmt"
	"os"

	"pqs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()

	// 1. Resolve a construction: 100 servers, consistency error <= 1e-3.
	sys, err := pqs.New(pqs.Config{N: 100, Epsilon: 1e-3, Mode: pqs.ModeBenign})
	if err != nil {
		return err
	}
	fmt.Printf("construction: %s\n", sys.Name())
	fmt.Printf("  quorum size     %d   (majority would need %d)\n", sys.QuorumSize(), 51)
	fmt.Printf("  load            %.2f\n", sys.Load())
	fmt.Printf("  fault tolerance %d   (majority: 50, grid: 10)\n", sys.FaultTolerance())
	fmt.Printf("  exact epsilon   %.2e\n", sys.Epsilon())

	// 2. Start 100 replicas in-process and a client.
	cluster, err := pqs.NewCluster(pqs.ClusterConfig{N: sys.N(), Seed: 1})
	if err != nil {
		return err
	}
	client, err := pqs.NewClient(pqs.ClientConfig{
		System:    sys,
		Transport: cluster.Transport(),
		WriterID:  1,
		Seed:      7,
	})
	if err != nil {
		return err
	}

	// 3. Write and read.
	if _, err := client.Write(ctx, "config/leader", []byte("server-42")); err != nil {
		return err
	}
	r, err := client.Read(ctx, "config/leader")
	if err != nil {
		return err
	}
	fmt.Printf("\nread after write: %q (stamp %s, %d servers vouched)\n", r.Value, r.Stamp, r.Vouchers)

	// 4. Crash 60 of the 100 servers. Any strict quorum system over 100
	//    servers has fault tolerance at most 51; this one keeps going.
	for id := 0; id < 60; id++ {
		cluster.Crash(id)
	}
	fmt.Println("\ncrashed servers 0..59 (60% of the universe)")

	ok, stale, unavailable := 0, 0, 0
	const reads = 200
	for i := 0; i < reads; i++ {
		r, err := client.Read(ctx, "config/leader")
		switch {
		case err != nil:
			unavailable++
		case r.Found && string(r.Value) == "server-42":
			ok++
		default:
			stale++
		}
	}
	fmt.Printf("%d reads under 60%% crashes: %d fresh, %d stale, %d unavailable\n",
		reads, ok, stale, unavailable)
	fmt.Println("(crashed quorum members simply do not answer; the highest surviving timestamp wins)")
	return nil
}
