// Package config holds the two configuration blocks shared by every harness
// that drives the register client — the public pqs.ClientConfig, the
// write-then-read chaos.Config and the population-scale load.Config:
//
//   - Tuning: the access-tuning knobs (straggler tolerance, hedging, early
//     completion, read repair) that parameterize register.Options.
//   - Topology: the cluster-shape knobs (cells, universe size, data plane,
//     latency model).
//
// Every config embeds Tuning and Topology, and these blocks are the only
// place the knobs are spelled. A reflection test at the repo root pins the
// rule that no config struct ever grows a private copy of a tuning knob.
//
// The package is deliberately leaf-level (it imports only vtime), so the
// public API, the harnesses and the load generator can all share it without
// cycles.
package config

import (
	"time"

	"pqs/internal/vtime"
)

// Tuning is the access-tuning block shared by every client-driving config:
// the straggler-tolerance and consistency/latency trade-off knobs of
// register.Options. Zero values mean "protocol default" everywhere, so an
// all-zero Tuning is the classic wait-for-all client.
//
// See register.Options for the full semantics of each knob; the field names
// match one-to-one.
type Tuning struct {
	// Spares oversamples every access set by this many extra servers,
	// promoted on member failure or hedge-timer expiry.
	Spares int
	// HedgeDelay promotes one spare each time this delay elapses before the
	// operation completes (with AdaptiveHedge, the warmup bootstrap).
	HedgeDelay time.Duration
	// AdaptiveHedge derives the hedge delay from the pooled reply-latency
	// estimator (SRTT + HedgeDeviations·RTTVAR) instead of HedgeDelay.
	AdaptiveHedge bool
	// HedgeDeviations is the adaptive-hedge quantile knob (0 = default 4).
	HedgeDeviations float64
	// EagerRead returns reads at the mode's decidable completion threshold,
	// draining stragglers in the background.
	EagerRead bool
	// W completes writes after W acknowledgements (0 = full access set).
	W int
	// ReadRepair pushes the value a read accepted back to stale members.
	ReadRepair bool
}

// Topology is the cluster-shape block shared by every harness config: how
// many quorum cells, how many replicas, which data plane, and the simulated
// latency model. Zero values mean "single cell, size from the quorum
// system, mem plane, no injected latency".
type Topology struct {
	// Cells partitions the keyspace across this many quorum cells (0 or 1 =
	// the classic single-cell layout).
	Cells int
	// CellVnodes is the per-cell virtual-node count on the routing ring
	// (0 = the ring package default).
	CellVnodes int
	// N is the per-cell replica count. Harnesses that carry a quorum system
	// leave it 0 and derive it from System.N(); the load generator sets it
	// explicitly.
	N int
	// Transport selects the data plane ("mem" or "tcp-virtual"; empty =
	// mem).
	Transport string
	// LatencyMin and LatencyMax, when LatencyMax > 0, give every call a
	// uniform simulated latency in [LatencyMin, LatencyMax].
	LatencyMin, LatencyMax time.Duration
}

// Cluster describes a replica-cluster layout. pqs.NewCluster and
// sim.NewClusterCfg both take it; they differ only in return type.
type Cluster struct {
	// Cells is the quorum-cell count (0 or 1 = single cell).
	Cells int
	// N is the replica count per cell.
	N int
	// Seed fixes the simulated network's randomness.
	Seed int64
	// Clock is the cluster's time source (nil = wall clock). Harnesses pass
	// a vtime.SimClock so simulated latency is virtual and deterministic.
	Clock vtime.Clock
}

// Total returns the total replica count (Cells × N, with Cells clamped to
// at least 1).
func (c Cluster) Total() int {
	cells := c.Cells
	if cells < 1 {
		cells = 1
	}
	return cells * c.N
}
