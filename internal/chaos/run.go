package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"pqs/internal/config"
	"pqs/internal/diffusion"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/replica"
	"pqs/internal/sim"
	"pqs/internal/sv"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// Config drives one chaos run.
type Config struct {
	// Tuning enables the client's straggler-tolerant access path for the
	// run (register.Options), putting hedge timers inside the chaos
	// determinism contract.
	config.Tuning
	// Topology shapes the run; Topology.N is ignored (the universe size
	// comes from System.N()).
	//
	// Cells, when > 1, runs the scenario against a multi-cell client: the
	// cluster holds Cells*System.N() replicas (cell i owning servers
	// [i*n, (i+1)*n)), every key routes to one cell by consistent hashing,
	// and the checker enforces the ε bound per cell as well as globally
	// (see CheckConfig.Cells). Schedule actions keep addressing global
	// server ids, so scenarios can partition between cells or crash a
	// whole cell.
	//
	// Transport selects the data plane: sim.TransportMem (default) drives
	// client traffic through the MemNetwork with the chaos engine as its
	// link hook; sim.TransportTCPVirtual drives it through the REAL TCP
	// stack — framing, binary codec, group-commit flusher, worker pool —
	// over virtual-time byte streams, with the schedule's faults
	// reimplemented at the byte-stream layer (drops reset connections,
	// corruption flips bits in framed chunks, blocks refuse dials and
	// reset streams; duplication is a deliberate no-op — TCP sequence
	// numbers preclude it). It implies Virtual.
	//
	// LatencyMin and LatencyMax, when LatencyMax > 0, give every call a
	// uniform simulated latency drawn deterministically from the seed.
	// Meaningful mainly with Virtual (wall runs would really sleep).
	config.Topology

	// Name labels the run in reports.
	Name string
	// System is the quorum system under test.
	System quorum.System
	// Mode selects the access protocol; K is the masking threshold.
	Mode register.Mode
	K    int
	// Ops is the number of write-then-read pairs. Each pair writes a fresh
	// version of a key from a rotating set of Keys keys (default 8) and
	// reads it back, so staleness has measurable depth (the PBS-style
	// distribution in CheckResult.StaleDepth).
	Ops int
	// Keys is the rotating key-set size (default 8, clamped to Ops).
	Keys int
	// ReadLag, when positive, makes the read of pair t target the key
	// written at pair t-ReadLag (clamped at 0) instead of the key just
	// written — so schedule events (churn waves in particular) land
	// *between* a key's last write and its read, giving timed-quorum runs
	// reads with genuine churn depth D > 0. Use ReadLag < Keys, or the
	// lagged key will have been overwritten in the meantime. 0 keeps the
	// classic write-then-read-same-key pairing.
	ReadLag int
	// Seed fixes every random choice of the run. Two runs with equal
	// Config produce equal Histories.
	Seed int64
	// Schedule is the fault script, applied at pair boundaries.
	Schedule Schedule
	// Bound is the theorem's per-read ε for the system under test; Alpha
	// the checker confidence (see CheckConfig).
	Bound float64
	Alpha float64
	// Timed enables the timed-quorum verdict: ops record the membership-
	// view version (bumped by Leave/Join actions), and the checker buckets
	// eligible reads by churn depth D, allowing each bucket the time-
	// decayed bound Base + ε(D) - ε(0) with Base = Bound (see
	// CheckConfig.Timed). The natural pairing is a churn schedule plus
	// ReadLag, so reads actually observe D > 0.
	Timed bool

	// Virtual runs the whole scenario under a vtime.SimClock: simulated
	// latency, hedge timers and slow-lorris delays execute in virtual time
	// — instantly, and deterministically enough to join the byte-for-byte
	// replay contract that previously had to exclude hedged runs.
	Virtual bool
	// WireCodec selects the TCP serialization under tcp-virtual (zero value
	// = CodecBinary, the production default). Ignored on the mem plane.
	WireCodec transport.Codec
	// Lifecycle configures connection pooling, redial backoff and the
	// circuit breaker on the tcp-virtual client (zero value = legacy
	// single-connection behavior). The register client detects the breaker
	// through the HealthReporter interface, so an open breaker fast-fails
	// quorum members at dispatch and spares promote at t=0. Ignored on the
	// mem plane.
	Lifecycle transport.LifecycleConfig
	// GossipEvery, when positive, runs one synchronized diffusion round
	// (anti-entropy push-pull over the current membership) after every
	// GossipEvery-th write/read pair — lazy propagation running
	// concurrently with client traffic at operation granularity, which
	// keeps the interleaving deterministic. GossipFanout is the peers
	// contacted per engine per round (default 1).
	GossipEvery  int
	GossipFanout int
}

// Report is the outcome of a chaos run.
type Report struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	System   string `json:"system"`
	Mode     string `json:"mode"`
	Ops      int    `json:"ops"`
	Schedule string `json:"schedule,omitempty"`
	// Transport is the data plane the run used ("mem" or "tcp-virtual").
	Transport string      `json:"transport"`
	Check     CheckResult `json:"check"`
	// Virtual and SimSeconds report virtual-time runs: the simulated
	// duration the scenario's operations covered, read before the data
	// plane is torn down so it replays exactly (wall time spent is the
	// caller's to measure — the run itself never reads the wall clock).
	Virtual    bool    `json:"virtual,omitempty"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// GossipRounds and GossipMerged summarize the diffusion group when
	// Config.GossipEvery is set: synchronized rounds run and entries
	// adopted from peers across all engines.
	GossipRounds uint64 `json:"gossip_rounds,omitempty"`
	GossipMerged uint64 `json:"gossip_merged,omitempty"`
	// The delta-gossip byte accounting, summed over all engines:
	// BytesPushed is the binary payload volume the watermark deltas
	// actually carried, BytesSuppressed what the old full-snapshot pushes
	// would have added on top, and FullSyncs the pushes that fell back to
	// full state (first contact, post-churn rejoin, watermark regression).
	GossipBytesPushed     uint64 `json:"gossip_bytes_pushed,omitempty"`
	GossipBytesSuppressed uint64 `json:"gossip_bytes_suppressed,omitempty"`
	GossipFullSyncs       uint64 `json:"gossip_full_syncs,omitempty"`
	// Lifecycle snapshots the main client's connection-lifecycle counters
	// when Config.Lifecycle enables any feature under tcp-virtual. Counter
	// totals are aggregates, not part of the byte-for-byte determinism
	// contract (that contract covers History only).
	Lifecycle *LifecycleReport `json:"lifecycle,omitempty"`
	// StormCalls and StormErrors aggregate the side traffic of every Storm
	// action the schedule fired (dial-storm scenarios); StormCoalesced and
	// StormFastFails are the storm fleet's own dial-coalescing and
	// backoff-fast-fail counts, collected before the fleet is torn down.
	// Aggregates only; storm operations never enter History.
	StormCalls     uint64 `json:"storm_calls,omitempty"`
	StormErrors    uint64 `json:"storm_errors,omitempty"`
	StormCoalesced uint64 `json:"storm_dials_coalesced,omitempty"`
	StormFastFails uint64 `json:"storm_backoff_fast_fails,omitempty"`
	// History is the full operation record (omitted from JSON reports;
	// replay the seed to regenerate it).
	History History `json:"-"`
}

// Run executes cfg: it stands up a cluster with a deterministic fault
// engine, plays the schedule while driving write-then-read pairs, records
// every operation, and checks the resulting history. The returned report's
// Check field carries the verdict; Run itself errors only on setup or
// harness failures, never on consistency violations. With cfg.Virtual the
// whole scenario executes inside a vtime.SimClock scheduler.
func Run(cfg Config) (*Report, error) {
	if cfg.Transport == sim.TransportTCPVirtual {
		// The byte-stream data plane schedules every chunk on the clock;
		// running it against the wall clock would really wait out the
		// latency, so tcp-virtual implies a virtual run.
		cfg.Virtual = true
	}
	if !cfg.Virtual {
		return run(cfg, nil)
	}
	sc := vtime.NewSimClock()
	var rep *Report
	var err error
	sc.Run(func() {
		rep, err = run(cfg, sc)
	})
	return rep, err
}

// run is the scenario body, on clk (nil = wall).
func run(cfg Config, clk *vtime.SimClock) (*Report, error) {
	if cfg.System == nil {
		return nil, errors.New("chaos: Config.System is required")
	}
	if cfg.Ops <= 0 {
		return nil, errors.New("chaos: Config.Ops must be positive")
	}
	keys := cfg.Keys
	if keys <= 0 {
		keys = 8
	}
	if keys > cfg.Ops {
		keys = cfg.Ops
	}

	cells := cfg.Cells
	if cells < 1 {
		cells = 1
	}

	var netClk vtime.Clock // avoid a typed-nil *SimClock inside the interface
	if clk != nil {
		netClk = clk
	}
	cluster := sim.NewClusterCfg(config.Cluster{Cells: cells, N: cfg.System.N(), Seed: cfg.Seed, Clock: netClk})
	var (
		eng           *Engine
		tc            *sim.TCPCluster
		callTransport transport.Transport
	)
	switch cfg.Transport {
	case "", sim.TransportMem:
		// The chaos engine is the MemNetwork's link hook: message-level
		// fault injection. It is installed before the first operation, so
		// its per-link sequence numbers count every call of the run.
		if cfg.Schedule.hooked() {
			eng = NewEngine(cfg.Seed + 0x9E3779B9)
			cluster.Net.SetLinkHook(eng)
		}
		if cfg.LatencyMax > 0 {
			cluster.Net.SetLatency(cfg.LatencyMin, cfg.LatencyMax)
		}
		callTransport = cluster.Net
	case sim.TransportTCPVirtual:
		// The fault plane is the byte-stream network itself: the schedule's
		// actions reconfigure it, and every framed chunk consults it.
		var err error
		tc, err = sim.NewTCPCluster(cluster, clk, cfg.Seed+0x9E3779B9, sim.TCPClusterOptions{
			Codec:     cfg.WireCodec,
			Lifecycle: cfg.Lifecycle,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: tcp cluster: %w", err)
		}
		defer tc.Close()
		if cfg.LatencyMax > 0 {
			tc.Net.SetLatency(cfg.LatencyMin, cfg.LatencyMax)
		}
		callTransport = tc.Client
	default:
		return nil, fmt.Errorf("chaos: unknown Transport %q", cfg.Transport)
	}

	opts := register.Options{
		System:          cfg.System,
		Mode:            cfg.Mode,
		K:               cfg.K,
		Transport:       callTransport,
		Rand:            rand.New(rand.NewSource(cfg.Seed + 1)),
		Clock:           ts.NewClock(1),
		Spares:          cfg.Spares,
		HedgeDelay:      cfg.HedgeDelay,
		AdaptiveHedge:   cfg.AdaptiveHedge,
		HedgeDeviations: cfg.HedgeDeviations,
		EagerRead:       cfg.EagerRead,
		W:               cfg.W,
		ReadRepair:      cfg.ReadRepair,
		Cells:           cfg.Cells,
		RingVnodes:      cfg.CellVnodes,
	}
	if clk != nil {
		opts.Time = clk
	}
	if cfg.Mode == register.Dissemination {
		kp, err := sv.GenerateKey(sim.SeededReader(cfg.Seed + 2))
		if err != nil {
			return nil, fmt.Errorf("chaos: generate key: %w", err)
		}
		reg := sv.NewRegistry()
		reg.Add(1, kp.Public)
		opts.Signer = kp.Private
		opts.Registry = reg
	}
	client, err := register.NewClient(opts)
	if err != nil {
		return nil, fmt.Errorf("chaos: client: %w", err)
	}

	rt := &runtime{
		cluster:   cluster,
		eng:       eng,
		tcp:       tc,
		byID:      make(map[quorum.ServerID]*replica.Replica),
		clock:     vtime.Or(netClk),
		lifecycle: cfg.Lifecycle,
	}
	for _, r := range cluster.Replicas {
		rt.byID[r.ID()] = r
	}
	if cfg.GossipEvery > 0 {
		fanout := cfg.GossipFanout
		if fanout <= 0 {
			fanout = 1
		}
		gossipTr := transport.Transport(cluster.Net)
		if tc != nil {
			// Gossip rides the TCP data plane too, through per-source
			// clients so the byte-level fault plane sees true
			// server-to-server links.
			gossipTr = tc.GossipTransport()
		}
		group, err := diffusion.NewGroupClock(cluster.Replicas, gossipTr, fanout, nil, cfg.Seed+2, netClk)
		if err != nil {
			return nil, fmt.Errorf("chaos: diffusion group: %w", err)
		}
		rt.gossip = group
	}
	events := make([]Event, len(cfg.Schedule))
	copy(events, cfg.Schedule)
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })

	ctx := context.Background()
	hist := make(History, 0, 2*cfg.Ops)
	var gossipRounds uint64
	seq := 0
	next := 0
	for t := 0; t < cfg.Ops; t++ {
		for next < len(events) && events[next].T <= t {
			for _, act := range events[next].Acts {
				act.apply(rt)
			}
			next++
		}
		if rt.gossip != nil && t > 0 && t%cfg.GossipEvery == 0 {
			// Diffusion interleaves with client traffic at pair
			// boundaries: deterministic, and adversarial enough — the
			// round runs under whatever partition/fault state the
			// schedule has currently installed.
			if err := rt.gossip.Step(ctx); err != nil {
				return nil, fmt.Errorf("chaos: gossip round at t=%d: %w", t, err)
			}
			gossipRounds++
		}
		key := fmt.Sprintf("k%d", t%keys)
		value := fmt.Sprintf("v%d", t)
		opCell := client.CellFor(key)
		view := rt.view

		wr, werr := client.Write(ctx, key, []byte(value))
		wop := Op{
			Seq: seq, Time: t, Kind: OpWrite, Key: key, Value: value,
			Stamp:  wr.Stamp,
			Full:   werr == nil && len(wr.Acked) == len(wr.Quorum),
			Quorum: wr.Quorum,
			Cell:   opCell,
			View:   view,
		}
		if werr != nil {
			wop.Err = werr.Error()
		}
		hist = append(hist, wop)
		seq++

		// With ReadLag the read targets the key written ReadLag pairs ago,
		// so churn events since that write give the read genuine depth D.
		readKey, readCell := key, opCell
		if cfg.ReadLag > 0 {
			lagT := t - cfg.ReadLag
			if lagT < 0 {
				lagT = 0
			}
			readKey = fmt.Sprintf("k%d", lagT%keys)
			readCell = client.CellFor(readKey)
		}
		rr, rerr := client.Read(ctx, readKey)
		rop := Op{
			Seq: seq, Time: t, Kind: OpRead, Key: readKey,
			Value: string(rr.Value), Stamp: rr.Stamp, Found: rr.Found,
			Quorum: rr.Quorum,
			Cell:   readCell,
			View:   view,
		}
		if rerr != nil {
			rop.Err = rerr.Error()
		}
		hist = append(hist, rop)
		seq++
	}
	client.WaitDrained()
	var simSeconds float64
	if clk != nil {
		// Read the clock before the deferred data-plane teardown: closing
		// the virtual TCP plane wakes its pool workers weakly
		// (vtime.NoteWeakSend), so how many FIN timers fire before the
		// last worker exits is up to the Go scheduler.
		simSeconds = clk.Elapsed().Seconds()
	}

	transportName := cfg.Transport
	if transportName == "" {
		transportName = sim.TransportMem
	}
	checkCfg := CheckConfig{Mode: cfg.Mode, Bound: cfg.Bound, Alpha: cfg.Alpha, Cells: cfg.Cells}
	if cfg.Timed {
		q := cfg.System.QuorumSize()
		checkCfg.Timed = &TimedBound{N: cfg.System.N(), QW: q, QR: q, Base: cfg.Bound}
	}
	rep := &Report{
		Name:       cfg.Name,
		Seed:       cfg.Seed,
		System:     cfg.System.Name(),
		Mode:       cfg.Mode.String(),
		Ops:        cfg.Ops,
		Schedule:   cfg.Schedule.String(),
		Transport:  transportName,
		History:    hist,
		Check:      Check(hist, checkCfg),
		Virtual:    clk != nil,
		SimSeconds: simSeconds,
	}
	if rt.gossip != nil {
		rep.GossipRounds = gossipRounds
		for _, e := range rt.gossip.Engines() {
			st := e.Stats()
			rep.GossipMerged += st.Merged
			rep.GossipBytesPushed += st.BytesPushed
			rep.GossipBytesSuppressed += st.BytesSuppressed
			rep.GossipFullSyncs += st.FullSyncs
		}
	}
	if tc != nil && cfg.Lifecycle.Enabled() {
		st := tc.Client.Stats()
		rep.Lifecycle = &LifecycleReport{
			Conns:            st.Conns,
			DialsCoalesced:   st.DialsCoalesced,
			BackoffFastFails: st.BackoffFastFails,
			BreakerTrips:     st.BreakerTrips,
			BreakerHalfOpens: st.BreakerHalfOpens,
			BreakerCloses:    st.BreakerCloses,
			BreakerFastFails: st.BreakerFastFails,
			ConnsReaped:      st.ConnsReaped,
			ProbesSent:       st.ProbesSent,
		}
	}
	rep.StormCalls = rt.stormCalls.Load()
	rep.StormErrors = rt.stormErrors.Load()
	rep.StormCoalesced = rt.stormCoalesced.Load()
	rep.StormFastFails = rt.stormFastFails.Load()
	return rep, nil
}

// LifecycleReport is the connection-lifecycle slice of the tcp-virtual
// client's transport counters, attached to a Report when Config.Lifecycle
// enables any feature. See transport.TCPStats for field semantics.
type LifecycleReport struct {
	Conns            uint64 `json:"conns"`
	DialsCoalesced   uint64 `json:"dials_coalesced"`
	BackoffFastFails uint64 `json:"backoff_fast_fails"`
	BreakerTrips     uint64 `json:"breaker_trips"`
	BreakerHalfOpens uint64 `json:"breaker_half_opens"`
	BreakerCloses    uint64 `json:"breaker_closes"`
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	ConnsReaped      uint64 `json:"conns_reaped"`
	ProbesSent       uint64 `json:"probes_sent"`
}
