// Package load is the population-scale load harness: an open-loop,
// SimClock-driven generator that runs tens of thousands of simulated
// clients at configured arrival rates against universes of a thousand or
// more replicas, with membership churn as a first-class scenario
// dimension, and records the empirical ε, the PBS-style staleness depth
// distribution, and tail-latency percentiles per scale point.
//
// The engine runs two phases under one vtime.SimClock:
//
//   - The COUNTING phase measures ε at population scale. Every client is
//     its own SimClock worker with its own register.Client, rng, writer
//     clock and disjoint keyspace ("c<id>/k<j>"), issuing operations on an
//     open-loop arrival grid (whole microseconds). On the mem plane the
//     clients run with register.Options.InlineDispatch and zero simulated
//     latency, so an operation completes synchronously at its arrival
//     instant: at any moment exactly one client is running, the only
//     shared mutable state (the membership-view counter) changes only at
//     churn-wave instants deliberately placed off the arrival grid (+1ns),
//     and the whole interleaving is deterministic — the run replays
//     byte-for-byte from its seed (Result.Digest pins it). The
//     latency-tolerance knobs of the embedded Tuning block are stripped
//     here (hedging is meaningless at zero latency); W and ReadRepair,
//     which change coverage and therefore ε, are honored.
//
//   - The LATENCY phase measures the tail. A single sequential issuer runs
//     against the same cluster with the Topology latency model installed
//     and the FULL Tuning block (spares, hedging, eager reads) in effect,
//     and records per-operation virtual-time durations into p50/p99/p999.
//
// Churn runs as replacement waves: WaveSize servers are deregistered and
// replaced by empty replicas (their copies are destroyed — a departure in
// the timed-quorum sense), the membership-view counter advances by the
// number of destroyed copies, and the new view version is re-advertised
// through the data plane itself — a quorum write of MemberViewKey by the
// churn driver — while the replacements run rejoin anti-entropy
// (GossipWaveRounds targeted gossip steps), exactly how a real deployment
// brings a fresh server up. Clients stamp every operation with the view
// they currently observe (the engine mirrors the advertised version in an
// atomic, as a deployment would cache its last-seen membership), and the
// checker buckets reads by view distance D and applies the time-decayed
// Gramoli-Raynal bound ε(D) via chaos.EvaluateTimed. Config.ViewBlind
// (the negative configuration) breaks exactly this link — ops stamp view
// 0 while churn still destroys copies — and must fail the timed gate,
// proving it has teeth.
package load

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"pqs/internal/chaos"
	"pqs/internal/combin"
	"pqs/internal/config"
	"pqs/internal/diffusion"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/replica"
	"pqs/internal/sim"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// MemberViewKey is the reserved register key under which the churn driver
// re-advertises the current membership-view version (the timed-quorum view
// counter), following the precedent of register.ViewKey for ring views.
// The NUL prefix keeps it out of every client keyspace.
const MemberViewKey = "\x00pqs/member-view"

// Config drives one population-scale load run. The access-tuning knobs
// live on the embedded config.Tuning block and the shape knobs on
// config.Topology.
type Config struct {
	// Tuning is the access-tuning block. It is honored in full by the
	// latency phase; the counting phase strips the latency-tolerance knobs
	// (Spares/HedgeDelay/AdaptiveHedge/HedgeDeviations/EagerRead) and
	// keeps the coverage knobs (W, ReadRepair) — see the package comment.
	config.Tuning
	// Topology supplies Cells/CellVnodes, Transport and the latency model
	// (used by the latency phase). Topology.N is ignored; the universe
	// size comes from System.N().
	config.Topology

	// Name labels the scale point in reports and BENCH_epsilon.json.
	Name string
	// System is the quorum system under test.
	System quorum.System
	// Clients is the number of concurrently simulated clients.
	Clients int
	// Arrivals is the number of arrival instants per client. In pair mode
	// (ReadFraction == 0) each arrival issues a write plus — once the lag
	// has primed — a lagged read; in fraction mode each arrival issues one
	// operation, a read with probability ReadFraction.
	Arrivals int
	// Arrival is the mean inter-arrival time per client (default 1ms).
	// Actual gaps are drawn uniformly from [Arrival/2, 3·Arrival/2) on a
	// whole-microsecond grid, per client, from the run seed.
	Arrival time.Duration
	// ReadFraction > 0 selects fraction mode: each arrival is a read with
	// this probability (of a uniformly chosen already-written key), else a
	// write. 0 selects pair mode.
	ReadFraction float64
	// Keys is the per-client rotating key-set size (default 4).
	Keys int
	// ReadLag is the pair-mode lag: the read at arrival t targets the key
	// written at arrival t-ReadLag, so churn waves land between a key's
	// write and its read and the depth buckets D > 0 are populated.
	// Default 1; clamped below Keys.
	ReadLag int
	// Seed fixes every random choice. Equal Configs produce equal Results
	// (Result.Digest is the replay contract).
	Seed int64
	// Bound is the flat per-read ε bound (a system's EpsilonBound); Alpha
	// the checker confidence (default chaos.DefaultAlpha).
	Bound float64
	Alpha float64

	// Waves and WaveSize configure churn: Waves replacement waves, evenly
	// spaced over the run (at off-grid +1ns instants), each replacing
	// WaveSize servers (round-robin over the universe) with empty
	// replicas.
	Waves    int
	WaveSize int
	// CrashN, when positive, crashes the CrashN highest-numbered servers
	// (which the churn rotation never touches) a third into the run and
	// recovers them at two thirds — fail-stop pressure on top of churn.
	// Crashes are not departures: the stores survive, so the view counter
	// does not move.
	CrashN int
	// GossipWaveRounds, when positive, runs that many rejoin anti-entropy
	// rounds after each churn wave: only the freshly replaced servers step
	// (push-pull against random live peers), the way a real replacement
	// syncs itself in — a global synchronized round would be n full-store
	// exchanges per wave at population scale. Gossip heals the staleness
	// churn causes — rejoined-empty servers pull state back — so scenarios
	// that want to measure RAW timed decay leave it 0; the membership-view
	// advertisement itself always goes through the data plane's quorum
	// write regardless.
	GossipWaveRounds int
	// Timed enables the time-decayed verdict (chaos.EvaluateTimed over the
	// per-depth read buckets) instead of the flat bound test.
	Timed bool
	// ViewBlind is the negative knob: ops are stamped with view 0 while
	// churn still destroys copies. A Timed run with ViewBlind set must
	// FAIL (all reads collapse into the D=0 bucket, which has no churn
	// allowance) — the scale gate's proof of teeth.
	ViewBlind bool

	// LatencyOps is the number of sequential operations the latency phase
	// issues (0 skips the phase; it also requires Topology.LatencyMax >
	// 0). The phase runs after counting, on the same cluster.
	LatencyOps int
}

// Result is one scale point's record — the per-scenario entry of
// BENCH_epsilon.json.
type Result struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	N         int    `json:"n"`
	Q         int    `json:"q"`
	Clients   int    `json:"clients"`
	Transport string `json:"transport"`

	// Ops is the grand total (counting + latency phases); the remaining
	// counters cover the counting phase, whose reads the ε gate judges.
	Ops         int `json:"ops"`
	Writes      int `json:"writes"`
	Reads       int `json:"reads"`
	Correct     int `json:"correct"`
	Stale       int `json:"stale"`
	Unavailable int `json:"unavailable,omitempty"`
	WriteErrs   int `json:"write_errs,omitempty"`

	// Epsilon is the empirical per-read miss rate over eligible reads
	// (reads that got an answer), tested against Bound.
	Epsilon float64 `json:"epsilon"`
	Bound   float64 `json:"bound"`
	// PValue is the flat binomial gate; with Timed set the timed verdict
	// below decides Pass instead and PValue is informational.
	PValue float64 `json:"p_value"`

	// Departures is the total number of copy-destroying replacements;
	// MemberView the final view-counter value; AdvertisedView what a
	// FRESH client read back from MemberViewKey after the run (0 when no
	// churn ran) — the end-to-end check that diffusion re-advertised the
	// membership view through the data plane.
	Departures     int    `json:"departures,omitempty"`
	MemberView     uint64 `json:"member_view,omitempty"`
	AdvertisedView uint64 `json:"advertised_view,omitempty"`

	// Timed is the time-decayed verdict (present when Config.Timed).
	Timed *chaos.TimedResult `json:"timed,omitempty"`

	// StaleDepth[d-1] counts stale reads that were d writes behind the
	// freshest value (the PBS staleness-depth distribution); the last
	// bucket absorbs deeper misses.
	StaleDepth []int `json:"stale_depth,omitempty"`

	// Latency-phase percentiles, in milliseconds of virtual time.
	LatencyOps int     `json:"latency_ops,omitempty"`
	P50Ms      float64 `json:"p50_ms,omitempty"`
	P99Ms      float64 `json:"p99_ms,omitempty"`
	P999Ms     float64 `json:"p999_ms,omitempty"`

	// SimSeconds is the virtual time the run covered, up to the end of the
	// latency phase (data-plane teardown excluded); Digest is the
	// FNV-64a digest of every client's operation stream in client order —
	// two runs of one Config must produce identical Results, Digest
	// included.
	SimSeconds float64 `json:"sim_seconds"`
	Digest     string  `json:"digest"`
	Pass       bool    `json:"pass"`
}

// staleDepthCap is the histogram size; the last bucket absorbs deeper.
const staleDepthCap = 16

// Run executes one load configuration under a fresh SimClock and returns
// its scale-point record. Deterministic: equal cfg, equal *Result.
func Run(cfg Config) (*Result, error) {
	if cfg.System == nil {
		return nil, errors.New("load: System is required")
	}
	if cfg.Clients <= 0 || cfg.Arrivals <= 0 {
		return nil, errors.New("load: Clients and Arrivals must be positive")
	}
	if cfg.Keys == 0 {
		cfg.Keys = 4
	}
	if cfg.Arrival == 0 {
		cfg.Arrival = time.Millisecond
	}
	if cfg.Arrival < 2*time.Microsecond {
		return nil, errors.New("load: Arrival must be at least 2us (arrivals live on a microsecond grid)")
	}
	if cfg.ReadLag == 0 {
		cfg.ReadLag = 1
	}
	if cfg.ReadLag >= cfg.Keys {
		return nil, fmt.Errorf("load: ReadLag %d must be below Keys %d", cfg.ReadLag, cfg.Keys)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = chaos.DefaultAlpha
	}
	sc := vtime.NewSimClock()
	var res *Result
	var err error
	sc.Run(func() {
		res, err = run(cfg, sc)
	})
	return res, err
}

// engine is the per-run shared state.
type engine struct {
	cfg     cfg
	sc      *vtime.SimClock
	net     *transport.MemNetwork
	vnet    *transport.VirtualNet // tcp-virtual byte streams (nil on mem)
	callTr  transport.Transport
	gossip  *diffusion.Group
	view    atomic.Uint64
	horizon time.Duration
	// nextChurn rotates the replacement targets over [0, churnSpan).
	nextChurn int
	churnSpan int
	total     int
	departed  int
}

type cfg = Config

func run(c Config, sc *vtime.SimClock) (*Result, error) {
	n := c.System.N()
	q := c.System.QuorumSize()
	cluster := sim.NewClusterCfg(config.Cluster{Cells: c.Topology.Cells, N: n, Seed: c.Seed, Clock: sc})
	total := len(cluster.Replicas)

	e := &engine{cfg: c, sc: sc, net: cluster.Net, total: total}
	e.churnSpan = total - c.CrashN
	e.horizon = time.Duration(c.Arrivals) * c.Arrival

	var callTr transport.Transport = cluster.Net
	switch c.Topology.Transport {
	case "", sim.TransportMem:
		// Zero latency during counting; clients dispatch inline (see
		// newClient), so each operation completes at its arrival instant.
	case sim.TransportTCPVirtual:
		if c.Waves > 0 || c.CrashN > 0 {
			return nil, errors.New("load: churn and crashes require the mem plane")
		}
		tc, err := sim.NewTCPCluster(cluster, sc, c.Seed+0x7C9, sim.TCPClusterOptions{})
		if err != nil {
			return nil, err
		}
		defer tc.Close()
		callTr = tc.Client
		e.vnet = tc.Net
	default:
		return nil, fmt.Errorf("load: unknown Transport %q", c.Topology.Transport)
	}
	e.callTr = callTr

	if c.Waves > 0 && c.GossipWaveRounds > 0 {
		g, err := diffusion.NewGroupClock(cluster.Replicas, cluster.Net, 1, nil, c.Seed+0x60551, sc)
		if err != nil {
			return nil, err
		}
		e.gossip = g
	}

	// The counting phase: one SimClock worker per client, plus the churn
	// and crash drivers.
	clients := make([]*clientState, c.Clients)
	for i := range clients {
		cs, err := e.newClientState(i)
		if err != nil {
			return nil, err
		}
		clients[i] = cs
	}
	wg := vtime.NewWaitGroup(sc)
	wg.Add(len(clients))
	for _, cs := range clients {
		cs := cs
		sc.Go(func() {
			defer wg.Done()
			e.clientLoop(cs)
		})
	}
	if c.Waves > 0 {
		wg.Add(1)
		sc.Go(func() {
			defer wg.Done()
			e.churnLoop()
		})
	}
	if c.CrashN > 0 {
		wg.Add(1)
		sc.Go(func() {
			defer wg.Done()
			e.crashLoop()
		})
	}
	wg.Wait()
	for _, cs := range clients {
		cs.cl.WaitDrained()
	}

	res := e.collect(clients, n, q)

	// End-to-end advertisement check: a FRESH client (new rng, new view of
	// the world) must read back the latest advertised membership version.
	if c.Waves > 0 && !c.ViewBlind {
		fresh, err := e.newClient(c.Seed+0x4EAD, uint32(c.Clients+3), false)
		if err != nil {
			return nil, err
		}
		if rr, err := fresh.Read(context.Background(), MemberViewKey); err == nil && rr.Found && len(rr.Value) == 8 {
			res.AdvertisedView = binary.BigEndian.Uint64(rr.Value)
		}
	}

	// The latency phase: sequential issuer, real latency model, full
	// Tuning block.
	if c.LatencyOps > 0 && c.Topology.LatencyMax > 0 {
		if err := e.latencyPhase(res); err != nil {
			return nil, err
		}
	}

	e.verdict(res)
	// Read the clock before the deferred data-plane teardown: closing the
	// virtual TCP plane wakes its pool workers weakly (vtime.NoteWeakSend),
	// so how many FIN timers fire before the last worker exits is up to
	// the Go scheduler.
	res.SimSeconds = sc.Elapsed().Seconds()
	return res, nil
}

// clientState is one simulated client's private world: its own register
// client, rng, per-key write records and result counters. Clients share
// only the replicas (on disjoint keys) and the view counter, so the
// interleaving of same-instant arrivals cannot change any outcome.
type clientState struct {
	id   int
	rng  *rand.Rand
	cl   *register.Client
	keys []string
	// ctr[k] is the write counter of key k (its value is the decimal
	// counter); viewAt[k] the membership view observed at its last write.
	ctr    []int
	viewAt []uint64

	writes, reads          int
	correct, stale         int
	unavailable, writeErrs int
	depth                  [staleDepthCap]int
	groups                 map[int]*chaos.TimedGroup
	digest                 uint64
}

// newClient builds a register client for this engine's plane. Counting
// clients strip the latency-tolerance knobs (see the package comment);
// the latency-phase issuer and the churn driver's advertiser keep them.
func (e *engine) newClient(seed int64, writer uint32, fullTuning bool) (*register.Client, error) {
	opts := register.Options{
		System:     e.cfg.System,
		Mode:       register.Benign,
		Transport:  e.callTr,
		Rand:       rand.New(rand.NewSource(seed)),
		Clock:      ts.NewClock(writer),
		Time:       e.sc,
		W:          e.cfg.Tuning.W,
		ReadRepair: e.cfg.Tuning.ReadRepair,
		Cells:      e.cfg.Topology.Cells,
		RingVnodes: e.cfg.Topology.CellVnodes,
	}
	if fullTuning {
		opts.Spares = e.cfg.Tuning.Spares
		opts.HedgeDelay = e.cfg.Tuning.HedgeDelay
		opts.AdaptiveHedge = e.cfg.Tuning.AdaptiveHedge
		opts.HedgeDeviations = e.cfg.Tuning.HedgeDeviations
		opts.EagerRead = e.cfg.Tuning.EagerRead
	} else if e.cfg.Topology.Transport == "" || e.cfg.Topology.Transport == sim.TransportMem {
		opts.InlineDispatch = true
	}
	return register.NewClient(opts)
}

func (e *engine) newClientState(i int) (*clientState, error) {
	cl, err := e.newClient(e.cfg.Seed+0x9E3779B9*int64(i+1), uint32(i+1), false)
	if err != nil {
		return nil, err
	}
	cs := &clientState{
		id:     i,
		rng:    rand.New(rand.NewSource(e.cfg.Seed ^ (0x5DEECE66D * int64(i+1)))),
		cl:     cl,
		keys:   make([]string, e.cfg.Keys),
		ctr:    make([]int, e.cfg.Keys),
		viewAt: make([]uint64, e.cfg.Keys),
		groups: map[int]*chaos.TimedGroup{},
		digest: 14695981039346656037, // FNV-64a offset basis
	}
	for k := range cs.keys {
		cs.keys[k] = "c" + strconv.Itoa(i) + "/k" + strconv.Itoa(k)
	}
	return cs, nil
}

// curView is the membership version ops are stamped with; ViewBlind (the
// negative configuration) severs the link.
func (e *engine) curView() uint64 {
	if e.cfg.ViewBlind {
		return 0
	}
	return e.view.Load()
}

// mix folds v into the client's FNV-64a digest.
func (c *clientState) mix(v uint64) {
	for i := 0; i < 8; i++ {
		c.digest ^= v & 0xFF
		c.digest *= 1099511628211
		v >>= 8
	}
}

// sleepUntil advances the worker to absolute virtual instant t.
func (e *engine) sleepUntil(t time.Duration) {
	if d := t - e.sc.Elapsed(); d > 0 {
		e.sc.Sleep(d)
	}
}

// draw returns the next inter-arrival gap: uniform in [Arrival/2,
// 3·Arrival/2) on a whole-microsecond grid, at least 1us.
func (c *clientState) draw(mean time.Duration) time.Duration {
	us := int64(mean / time.Microsecond)
	gap := us/2 + c.rng.Int63n(us)
	if gap < 1 {
		gap = 1
	}
	return time.Duration(gap) * time.Microsecond
}

func (e *engine) clientLoop(c *clientState) {
	next := c.draw(e.cfg.Arrival)
	for t := 0; t < e.cfg.Arrivals; t++ {
		e.sleepUntil(next)
		next += c.draw(e.cfg.Arrival)
		if e.cfg.ReadFraction > 0 {
			written := e.cfg.Keys
			if c.writes < written {
				written = c.writes
			}
			if written == 0 || c.rng.Float64() >= e.cfg.ReadFraction {
				e.doWrite(c, c.writes%e.cfg.Keys)
			} else {
				e.doRead(c, c.rng.Intn(written))
			}
		} else {
			e.doWrite(c, t%e.cfg.Keys)
			if t >= e.cfg.ReadLag {
				e.doRead(c, (t-e.cfg.ReadLag)%e.cfg.Keys)
			}
		}
	}
}

func (e *engine) doWrite(c *clientState, k int) {
	c.ctr[k]++
	c.viewAt[k] = e.curView()
	val := []byte(strconv.Itoa(c.ctr[k]))
	if _, err := c.cl.Write(context.Background(), c.keys[k], val); err != nil {
		c.writeErrs++
	}
	c.writes++
	c.mix(1)
	c.mix(uint64(k))
	c.mix(uint64(c.ctr[k]))
	c.mix(c.viewAt[k])
}

func (e *engine) doRead(c *clientState, k int) {
	view := e.curView()
	rr, err := c.cl.Read(context.Background(), c.keys[k])
	c.reads++
	exp := c.ctr[k]
	var got int
	switch {
	case err != nil:
		c.unavailable++
		c.mix(2)
		c.mix(uint64(k))
		c.mix(^uint64(0))
		return
	case rr.Found:
		got, _ = strconv.Atoi(string(rr.Value))
	}
	d := 0
	if view > c.viewAt[k] {
		d = int(view - c.viewAt[k])
	}
	g := c.groups[d]
	if g == nil {
		g = &chaos.TimedGroup{Departures: d}
		c.groups[d] = g
	}
	g.Reads++
	if got >= exp {
		c.correct++
	} else {
		c.stale++
		g.Bad++
		depth := exp - got
		if depth > staleDepthCap {
			depth = staleDepthCap
		}
		c.depth[depth-1]++
	}
	c.mix(2)
	c.mix(uint64(k))
	c.mix(uint64(exp))
	c.mix(uint64(got))
	c.mix(uint64(d))
}

// churnLoop fires the replacement waves at off-grid instants (+1ns past
// evenly spaced points of the horizon), so a wave never ties with an
// arrival timer and every client observes a consistent before/after view.
func (e *engine) churnLoop() {
	ctx := context.Background()
	adv, err := e.newClient(e.cfg.Seed+0xAD7E7, uint32(e.cfg.Clients+2), false)
	if err != nil {
		panic(fmt.Sprintf("load: churn advertiser: %v", err))
	}
	replaced := make([]quorum.ServerID, e.cfg.WaveSize)
	joined := make([]*replica.Replica, e.cfg.WaveSize)
	for w := 1; w <= e.cfg.Waves; w++ {
		e.sleepUntil(e.horizon*time.Duration(w)/time.Duration(e.cfg.Waves+1) + time.Nanosecond)
		for j := 0; j < e.cfg.WaveSize; j++ {
			id := quorum.ServerID(e.nextChurn % e.churnSpan)
			e.nextChurn++
			e.net.Deregister(id)
			r := replica.New(id)
			e.net.Register(id, r)
			replaced[j], joined[j] = id, r
		}
		if e.gossip != nil {
			// One batched swap: per-server Add/Remove would refresh every
			// engine's peer set per call — O(n²) id copies per wave, which
			// dominates wall time at n=1000.
			if err := e.gossip.Replace(replaced, joined); err != nil {
				panic(fmt.Sprintf("load: rejoin gossip: %v", err))
			}
		}
		e.view.Add(uint64(e.cfg.WaveSize))
		e.departed += e.cfg.WaveSize
		// Re-advertise the new membership version through the data plane
		// (quorum write) and let the replacements anti-entropy themselves
		// back in. Only the rejoining servers step: a global round at
		// population scale is n full-store first-contact exchanges, and the
		// replacements are the only stores churn emptied.
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], e.view.Load())
		if _, err := adv.Write(ctx, MemberViewKey, buf[:]); err != nil {
			panic(fmt.Sprintf("load: view advertisement: %v", err))
		}
		for r := 0; e.gossip != nil && r < e.cfg.GossipWaveRounds; r++ {
			if err := e.gossip.StepOnly(ctx, replaced); err != nil {
				panic(fmt.Sprintf("load: gossip step: %v", err))
			}
		}
	}
}

// crashLoop crashes the CrashN highest servers (outside the churn
// rotation) a third into the run and recovers them at two thirds; the +2ns
// offsets dodge both the arrival grid and the wave instants.
func (e *engine) crashLoop() {
	e.sleepUntil(e.horizon/3 + 2*time.Nanosecond)
	for j := 0; j < e.cfg.CrashN; j++ {
		e.net.Crash(quorum.ServerID(e.total - 1 - j))
	}
	e.sleepUntil(2*e.horizon/3 + 2*time.Nanosecond)
	for j := 0; j < e.cfg.CrashN; j++ {
		e.net.Recover(quorum.ServerID(e.total - 1 - j))
	}
}

// collect folds the per-client records, in client order, into the Result.
func (e *engine) collect(clients []*clientState, n, q int) *Result {
	res := &Result{
		Name: e.cfg.Name, Seed: e.cfg.Seed, N: n, Q: q,
		Clients: e.cfg.Clients, Transport: e.planeName(),
		Bound:      e.cfg.Bound,
		Departures: e.departed,
		MemberView: e.view.Load(),
		StaleDepth: make([]int, staleDepthCap),
	}
	groups := map[int]*chaos.TimedGroup{}
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range clients {
		res.Writes += c.writes
		res.Reads += c.reads
		res.Correct += c.correct
		res.Stale += c.stale
		res.Unavailable += c.unavailable
		res.WriteErrs += c.writeErrs
		for d, g := range c.groups {
			t := groups[d]
			if t == nil {
				t = &chaos.TimedGroup{Departures: d}
				groups[d] = t
			}
			t.Reads += g.Reads
			t.Bad += g.Bad
		}
		for i, v := range c.depth {
			res.StaleDepth[i] += v
		}
		binary.BigEndian.PutUint64(buf[:], c.digest)
		h.Write(buf[:])
	}
	res.Ops = res.Writes + res.Reads
	eligible := res.Reads - res.Unavailable
	if eligible > 0 {
		res.Epsilon = float64(res.Stale) / float64(eligible)
	}
	if e.cfg.Timed {
		gs := make([]chaos.TimedGroup, 0, len(groups))
		for _, g := range groups {
			gs = append(gs, *g)
		}
		sort.Slice(gs, func(i, j int) bool { return gs[i].Departures < gs[j].Departures })
		res.Timed = chaos.EvaluateTimed(gs, chaos.TimedBound{N: n, QW: q, QR: q, Base: e.cfg.Bound}, e.cfg.Alpha)
	}
	res.Digest = fmt.Sprintf("%016x", h.Sum64())
	return res
}

func (e *engine) planeName() string {
	if e.cfg.Topology.Transport == "" {
		return sim.TransportMem
	}
	return e.cfg.Topology.Transport
}

// latencyPhase runs the sequential tail-latency issuer: the Topology
// latency model goes live on the plane and the full Tuning block (spares,
// hedging, eager reads) steers the client.
func (e *engine) latencyPhase(res *Result) error {
	min, max := e.cfg.Topology.LatencyMin, e.cfg.Topology.LatencyMax
	if e.vnet != nil {
		// TCP traffic rides the virtual byte streams, not the mem network:
		// the chunk-delivery latency lives on the VirtualNet.
		e.vnet.SetLatency(min, max)
	} else {
		e.net.SetLatency(min, max)
	}
	issuer, err := e.newClient(e.cfg.Seed+0x1A7E4C, uint32(e.cfg.Clients+4), true)
	if err != nil {
		return err
	}
	ctx := context.Background()
	durs := make([]time.Duration, 0, e.cfg.LatencyOps)
	for i := 0; i < e.cfg.LatencyOps; i++ {
		key := "lat/k" + strconv.Itoa(i%16)
		start := e.sc.Elapsed()
		if i%2 == 0 {
			if _, err := issuer.Write(ctx, key, []byte{byte(i)}); err != nil {
				return fmt.Errorf("load: latency write: %w", err)
			}
		} else {
			if _, err := issuer.Read(ctx, key); err != nil {
				return fmt.Errorf("load: latency read: %w", err)
			}
		}
		durs = append(durs, e.sc.Elapsed()-start)
	}
	issuer.WaitDrained()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	res.LatencyOps = len(durs)
	res.P50Ms = quantileMs(durs, 50, 100)
	res.P99Ms = quantileMs(durs, 99, 100)
	res.P999Ms = quantileMs(durs, 999, 1000)
	res.Ops += len(durs)
	return nil
}

func quantileMs(sorted []time.Duration, num, den int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * num / den
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// verdict applies the gate: the timed verdict when Config.Timed, else the
// flat binomial bound test (same statistic as the chaos checker's).
func (e *engine) verdict(res *Result) {
	eligible := res.Reads - res.Unavailable
	if eligible <= 0 {
		res.Pass = false
		return
	}
	res.PValue = 1
	if res.Stale > 0 {
		res.PValue = combinTail(eligible, e.cfg.Bound, res.Stale)
	}
	if res.Timed != nil {
		res.Pass = res.Timed.Pass
		return
	}
	res.Pass = res.PValue >= e.cfg.Alpha
}

// combinTail is P(Binomial(m, p) >= k) — the flat gate statistic.
func combinTail(m int, p float64, k int) float64 {
	return combin.GroupedBinomialTailGE([]int{m}, []float64{p}, k)
}
