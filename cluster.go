package pqs

import (
	"context"
	"fmt"
	"time"

	"pqs/internal/config"
	"pqs/internal/diffusion"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/sim"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

// LocalCluster runs n replicas in-process on a simulated network with
// injectable faults. It is the recommended substrate for tests, examples
// and experiments; the same Client code talks to it and to TCP replicas.
type LocalCluster struct {
	net    *transport.MemNetwork
	reps   []*replica.Replica
	gossip *diffusion.Group
	// cellN is the per-cell replica count (ClusterConfig.N).
	cellN int
}

// ClusterConfig describes a local replica cluster. The sim package accepts
// the same struct through sim.NewClusterCfg.
type ClusterConfig = config.Cluster

// NewCluster starts a local in-process cluster from cfg: cfg.Cells × cfg.N
// correct replicas on one simulated network seeded by cfg.Seed. Cells 0 or
// 1 is the classic single-cell layout; with more, cell i owns servers
// [i*N, (i+1)*N) for a multi-cell client (ClientConfig.Cells over a System
// with N servers). All cells share the network, so cross-cell faults — a
// partition between cells, a whole cell crashing — are injected with the
// usual methods over global server ids (or CrashCell/RecoverCell). A
// non-nil cfg.Clock puts the network's simulated latency on that clock
// (harnesses pass a vtime.SimClock for deterministic virtual time).
func NewCluster(cfg ClusterConfig) (*LocalCluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("pqs: cluster size %d must be positive", cfg.N)
	}
	if cfg.Cells < 0 {
		return nil, fmt.Errorf("pqs: cell count %d must be positive", cfg.Cells)
	}
	sc := sim.NewClusterCfg(cfg)
	return &LocalCluster{net: sc.Net, reps: sc.Replicas, cellN: cfg.N}, nil
}

// N returns the cluster size (total replicas across all cells).
func (c *LocalCluster) N() int { return len(c.reps) }

// Cells returns the cell count the cluster was laid out for.
func (c *LocalCluster) Cells() int { return len(c.reps) / c.cellN }

// CrashCell crashes every replica of the given cell (see NewCluster for
// the layout). Operations routed to the cell fail until RecoverCell; other
// cells are untouched.
func (c *LocalCluster) CrashCell(cell int) {
	for i := cell * c.cellN; i < (cell+1)*c.cellN; i++ {
		c.Crash(i)
	}
}

// RecoverCell recovers every replica of the given cell.
func (c *LocalCluster) RecoverCell(cell int) {
	for i := cell * c.cellN; i < (cell+1)*c.cellN; i++ {
		c.Recover(i)
	}
}

// Transport returns the client-side transport for this cluster.
func (c *LocalCluster) Transport() Transport { return c.net }

// Crash simulates a crash of server id (calls fail until Recover).
func (c *LocalCluster) Crash(id int) { c.net.Crash(quorum.ServerID(id)) }

// Recover brings a crashed server back.
func (c *LocalCluster) Recover(id int) { c.net.Recover(quorum.ServerID(id)) }

// SetDropProb makes the simulated network lose each message with
// probability p.
func (c *LocalCluster) SetDropProb(p float64) { c.net.SetDropProb(p) }

// SetLatency gives every call a uniformly random latency in [min, max],
// the substrate for tail-latency experiments. Zero max disables delay.
func (c *LocalCluster) SetLatency(min, max time.Duration) { c.net.SetLatency(min, max) }

// SetServerConcurrency caps every replica at k calls in service at once
// (0 removes the cap). With a cap, the SetLatency range is spent while
// holding one of the replica's k slots — latency becomes service time, so
// each replica has a throughput ceiling of k/latency calls per second and
// adding cells adds real, measurable capacity (the multi-cell scaling
// benchmarks depend on this model).
func (c *LocalCluster) SetServerConcurrency(k int) { c.net.SetServerConcurrency(k) }

// SetServerLatency overrides the latency range of a single server, turning
// it into a straggler (or a fast path). A zero max restores the global
// range for that server.
func (c *LocalCluster) SetServerLatency(id int, min, max time.Duration) {
	c.net.SetServerLatency(quorum.ServerID(id), min, max)
}

// MakeByzantine turns server id into a colluding forger: it fabricates the
// given value with an overwhelming timestamp on reads and drops writes.
// This is the adversary the dissemination and masking analyses defend
// against. Passing it the same value for several servers makes them
// colluders.
func (c *LocalCluster) MakeByzantine(id int, forgedValue []byte) {
	c.reps[id].SetBehavior(replica.Forger{
		Value: forgedValue,
		Stamp: ts.Stamp{Counter: 1 << 62, Writer: 0xFFFFFFFF},
		Sig:   []byte("forged"),
	})
}

// MakeCorrect restores server id to correct behavior.
func (c *LocalCluster) MakeCorrect(id int) { c.reps[id].SetBehavior(replica.Correct{}) }

// Replicas exposes the underlying replicas for advanced scenarios (custom
// behaviors, direct store inspection, diffusion engines).
func (c *LocalCluster) Replicas() []*replica.Replica { return c.reps }

// EnableDiffusion attaches an epidemic anti-entropy engine to every replica
// (Section 1.1's lazy update propagation). Each GossipRounds call then runs
// synchronized push-pull rounds with the given fanout, spreading the latest
// value-timestamp pairs to every server and driving the effective ε toward
// zero for updates dispersed in time.
func (c *LocalCluster) EnableDiffusion(fanout int, seed int64) error {
	g, err := diffusion.NewGroup(c.reps, c.net, fanout, nil, seed)
	if err != nil {
		return err
	}
	c.gossip = g
	return nil
}

// GossipRounds runs the given number of synchronized gossip rounds.
// EnableDiffusion must have been called.
func (c *LocalCluster) GossipRounds(ctx context.Context, rounds int) error {
	if c.gossip == nil {
		return fmt.Errorf("pqs: diffusion not enabled; call EnableDiffusion first")
	}
	for i := 0; i < rounds; i++ {
		if err := c.gossip.Step(ctx); err != nil {
			return err
		}
	}
	return nil
}
