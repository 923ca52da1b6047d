package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pqs/internal/config"
	"pqs/internal/load"
	"pqs/internal/register"
	"pqs/internal/sim"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// The population workload: load.Run at n=1000 (ℓ=2, q=63) with 10k
// SimClock clients, open loop, 80% reads in fraction mode, a few churn
// waves each followed by one rejoin gossip round, the timed ε(D) gate,
// and a latency phase under the scale matrix's tuning and latency model
// (spares, adaptive hedge, eager reads). The run is deterministic, so its
// digest is the correctness oracle: every run of one seed must replay it.
const (
	popClients    = 10000
	popArrivals   = 4
	popReadFrac   = 0.8
	popWaves      = 3
	popWaveSize   = 25
	popLatencyOps = 1000
)

// populationConfig builds the workload's load.Config from the scale/churn
// point, which carries the matrix's latency-phase tuning and latency
// model, at the given seed.
func populationConfig(seed int64) (load.Config, error) {
	sc, ok := load.Find("scale/churn")
	if !ok {
		return load.Config{}, fmt.Errorf("load has no scale/churn scenario")
	}
	cfg, err := sc.Build(seed)
	if err != nil {
		return load.Config{}, err
	}
	if n, q := cfg.System.N(), cfg.System.QuorumSize(); n != 1000 || q != 63 {
		return load.Config{}, fmt.Errorf("scale/churn is n=%d q=%d, want n=1000 q=63", n, q)
	}
	cfg.Name = "perfbench/population"
	cfg.Clients = popClients
	cfg.Arrivals = popArrivals
	cfg.ReadFraction = popReadFrac
	cfg.Waves = popWaves
	cfg.WaveSize = popWaveSize
	cfg.GossipWaveRounds = 1
	cfg.Timed = true
	cfg.LatencyOps = popLatencyOps
	return cfg, nil
}

// populationSetup builds the stack a load.Run of cfg builds before its
// first arrival — a SimClock cluster of n replicas and one inline-dispatch
// register client per simulated client — with the same constructors, and
// returns the wall time it took. load.Run exposes no hook to time its own
// set-up, so this stands in for it.
func populationSetup(cfg load.Config) (time.Duration, error) {
	start := time.Now()
	sc := vtime.NewSimClock()
	cluster := sim.NewClusterCfg(config.Cluster{N: cfg.System.N(), Seed: cfg.Seed, Clock: sc})
	clients := make([]*register.Client, cfg.Clients)
	for i := range clients {
		cl, err := register.NewClient(register.Options{
			System:         cfg.System,
			Mode:           register.Benign,
			Transport:      cluster.Net,
			Rand:           rand.New(rand.NewSource(cfg.Seed + int64(i))),
			Clock:          ts.NewClock(uint32(i + 1)),
			Time:           sc,
			InlineDispatch: true,
		})
		if err != nil {
			return 0, err
		}
		clients[i] = cl
	}
	return time.Since(start), nil
}

// popRun is one load.Run with its wall time.
type popRun struct {
	res  *load.Result
	wall time.Duration
}

// runLoad collects the previous run's garbage first, so every run starts
// from the same heap.
func runLoad(cfg load.Config) (popRun, error) {
	runtime.GC()
	start := time.Now()
	res, err := load.Run(cfg)
	if err != nil {
		return popRun{}, err
	}
	return popRun{res: res, wall: time.Since(start)}, nil
}

func (p popRun) opsPerSec() float64 { return float64(p.res.Ops) / p.wall.Seconds() }

// checkRuns applies the population checks to a set of runs of one config:
// every run passes its own gate and all replay the first run's digest.
func checkRuns(r *report, runs []popRun) {
	first := runs[0].res
	for i, p := range runs {
		res := p.res
		r.attempted += int64(res.Ops)
		r.failed += int64(res.Unavailable + res.WriteErrs)
		r.note("population run %d: ops=%d reads=%d stale=%d eps=%.5g bound=%.5g departures=%d sim_s=%.6f wall_s=%.3f digest=%s pass=%v",
			i, res.Ops, res.Reads, res.Stale, res.Epsilon, res.Bound, res.Departures, res.SimSeconds, p.wall.Seconds(), res.Digest, res.Pass)
		if !res.Pass {
			r.fail("population run %d: load gate failed (eps=%.5g, bound=%.5g, p=%.3g)", i, res.Epsilon, res.Bound, res.PValue)
		}
		if res.Digest != first.Digest {
			r.fail("population run %d: digest %s differs from run 0's %s under one seed", i, res.Digest, first.Digest)
		}
	}
}

// runPopulation runs the workload: an untraced run is one part (one
// set-up probe and one load.Run) of a multi-process run (parts.go), which
// checks the replay digest across its parts.
func runPopulation(seed int64, traced bool) (*report, error) {
	cfg, err := populationConfig(seed)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.note("population: n=%d q=%d clients=%d arrivals=%d read_frac=%.2f waves=%dx%d latency_ops=%d",
		cfg.System.N(), cfg.System.QuorumSize(), cfg.Clients, cfg.Arrivals, cfg.ReadFraction, cfg.Waves, cfg.WaveSize, cfg.LatencyOps)
	if traced {
		return r, populationTraced(r, cfg)
	}

	setup, err := populationSetup(cfg)
	if err != nil {
		return nil, err
	}
	p, err := runLoad(cfg)
	if err != nil {
		return nil, err
	}
	checkRuns(r, []popRun{p})
	r.digest = p.res.Digest
	res := p.res
	r.set("ops_per_s", p.opsPerSec(), res.Ops)
	// load reports one latency-phase distribution over its interleaved
	// reads and writes, in virtual time; both rows carry it.
	r.set("read_p50_us", res.P50Ms*1e3, res.LatencyOps)
	r.set("read_p99_us", res.P99Ms*1e3, res.LatencyOps)
	r.set("write_p50_us", res.P50Ms*1e3, res.LatencyOps)
	r.set("write_p99_us", res.P99Ms*1e3, res.LatencyOps)
	r.set("setup_s", setup.Seconds(), 1)
	r.note("population latency rows are load's latency-phase percentiles in virtual time over %d interleaved reads and writes", res.LatencyOps)
	return r, nil
}

// populationTraced runs the workload once untraced (the overhead baseline
// and the runtime counters) and once under a CPU profile, which is the
// only per-layer view of a stack load.Run builds internally.
func populationTraced(r *report, cfg load.Config) error {
	probe := startRuntimeProbe()
	base, err := runLoad(cfg)
	if err != nil {
		return err
	}
	rt := probe.stop(int64(base.res.Ops))
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	traced, err := runLoad(cfg)
	if err != nil {
		prof.stop()
		return err
	}
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	checkRuns(r, []popRun{base, traced})
	res := base.res
	r.set("load.epsilon", res.Epsilon, res.Reads)
	r.set("load.stale", float64(res.Stale), res.Reads)
	r.set("load.departures", float64(res.Departures), res.Departures)
	r.set("load.sim_s", res.SimSeconds, 1)
	rt.report(r, res.Ops)
	r.set("trace.overhead_frac", 1-traced.opsPerSec()/base.opsPerSec(), 2)
	r.note("traced: untraced %.1f ops/s, profiled %.1f ops/s", base.opsPerSec(), traced.opsPerSec())
	shares.report(r)
	return nil
}
