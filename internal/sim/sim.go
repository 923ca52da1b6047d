// Package sim holds the cluster fixtures the harnesses share and the
// Monte-Carlo measurements that need no fault schedule:
//
//   - Cluster (NewClusterCfg) and TCPCluster (NewTCPCluster): replicas on
//     the simulated MemNetwork, optionally behind the real TCP data plane
//     over virtual-time byte streams;
//   - empirical per-server load (MeasureLoad, Definition 2.4);
//   - empirical availability (MeasureAvailability, Definition 2.6);
//   - the diffusion ablation (MeasureDiffusionConsistency, Section 1.1).
//
// Write-then-read ε trials (Theorems 3.2, 4.2 and 5.2) run through
// chaos.Run and are judged by chaos.Check: a fault-free schedule with
// Keys = Ops is the classic Monte-Carlo measurement.
//
// Every measurement is deterministic given its seed.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
)

// Cluster is a set of replicas on a simulated network.
type Cluster struct {
	Net      *transport.MemNetwork
	Replicas []*replica.Replica
}

// NewClusterCfg builds a cluster from the config.Cluster options struct
// shared with the public pqs.NewCluster: Cells × N replicas on one
// simulated network, with the network's latency on cfg.Clock (nil = wall
// clock). Cells 0 or 1 is a single cell; with more, cell i owns global ids
// [i·N, (i+1)·N), the layout of a cell-partitioned client
// (register.Options.Cells over a system with N servers). Cross-cell faults
// are injected with the usual per-server methods over global ids, and the
// TCP plane (NewTCPCluster wraps the whole Cluster) gives every cell's
// replicas virtual byte streams. Harnesses pass a vtime.SimClock so
// simulated latency is virtual: instant to execute, deterministic to
// replay.
func NewClusterCfg(cfg config.Cluster) *Cluster {
	c := &Cluster{Net: transport.NewMemNetwork(cfg.Seed)}
	c.Net.SetClock(cfg.Clock)
	total := cfg.Total()
	for i := 0; i < total; i++ {
		r := replica.New(quorum.ServerID(i))
		c.Replicas = append(c.Replicas, r)
		c.Net.Register(quorum.ServerID(i), r)
	}
	return c
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.Replicas) }

// SeededReader returns a deterministic entropy source for reproducible
// signing keys (shared by the sim and chaos harnesses). The stream
// advances across Reads like a real entropy source.
func SeededReader(seed int64) io.Reader {
	return &seededReader{rng: rand.New(rand.NewSource(seed))}
}

type seededReader struct{ rng *rand.Rand }

func (s *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Intn(256))
	}
	return len(p), nil
}

// LoadResult summarizes an empirical load measurement.
type LoadResult struct {
	// Trials is the number of quorums sampled.
	Trials int
	// MaxRate is the access frequency of the busiest server: the empirical
	// load L_w(Q) of Definition 2.4.
	MaxRate float64
	// MeanRate is the average access frequency, E|Q|/n.
	MeanRate float64
	// PerServer is each server's access frequency.
	PerServer []float64
}

// MeasureLoad samples quorums under the system's strategy and reports
// per-server access frequencies.
func MeasureLoad(sys quorum.System, trials int, seed int64) (LoadResult, error) {
	if trials <= 0 {
		return LoadResult{}, errors.New("sim: trials must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, sys.N())
	for i := 0; i < trials; i++ {
		for _, id := range sys.Pick(rng) {
			counts[id]++
		}
	}
	res := LoadResult{Trials: trials, PerServer: make([]float64, sys.N())}
	var sum float64
	for i, c := range counts {
		f := float64(c) / float64(trials)
		res.PerServer[i] = f
		sum += f
		if f > res.MaxRate {
			res.MaxRate = f
		}
	}
	res.MeanRate = sum / float64(sys.N())
	return res, nil
}

// MeasureAvailability estimates the failure probability F_p by sampling
// crash patterns (each server down independently with probability p) and
// checking for a live quorum. The system must implement quorum.LiveChecker.
func MeasureAvailability(sys quorum.System, p float64, trials int, seed int64) (float64, error) {
	checker, ok := sys.(quorum.LiveChecker)
	if !ok {
		return 0, fmt.Errorf("sim: %s does not support live-quorum checking", sys.Name())
	}
	if trials <= 0 {
		return 0, errors.New("sim: trials must be positive")
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("sim: crash probability %v outside [0,1]", p)
	}
	rng := rand.New(rand.NewSource(seed))
	n := sys.N()
	crashed := make([]bool, n)
	failures := 0
	for t := 0; t < trials; t++ {
		for i := range crashed {
			crashed[i] = rng.Float64() < p
		}
		if !checker.LiveQuorumExists(func(id quorum.ServerID) bool { return crashed[id] }) {
			failures++
		}
	}
	return float64(failures) / float64(trials), nil
}
