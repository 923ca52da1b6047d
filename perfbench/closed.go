package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pqs"
	"pqs/internal/combin"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/wire"
)

// The closed-loop workloads (mem-mixed, tcp-mixed): n=100, q=23 — the
// paper's ε ≤ 1e-3 shape — driven by `callers` closed-loop callers (one
// per vCPU of a 2-vCPU box), each the single writer of its own
// keysPerCaller keys, issuing writeFrac writes of valueSize-byte values to
// its own keys and reads uniform over all keys.
const (
	closedN       = 100
	closedQ       = 23
	callers       = 2
	keysPerCaller = 1000
	valueSize     = 64
	writeFrac     = 0.10
	warmup        = 500 * time.Millisecond
	// staleAlpha is the significance of the one-sided binomial test of the
	// stale-read count against the exact ε: a run fails when the count is
	// this unlikely under ε.
	staleAlpha = 1e-6
)

type plane int

const (
	planeMem plane = iota
	planeTCP
)

func planeOf(workload string) plane {
	if workload == "tcp-mixed" {
		return planeTCP
	}
	return planeMem
}

func (p plane) String() string {
	if p == planeTCP {
		return "tcp-mixed"
	}
	return "mem-mixed"
}

// closedConfig is one closed-loop run.
type closedConfig struct {
	plane   plane
	seed    int64
	measure time.Duration
	traced  bool
	// fault, when set, runs after set-up and before measuring; the
	// checkers' negative tests plant faults with it.
	fault func(*stack)
}

// stack is one built cluster: the system, the replicas, the data plane
// reaching them, and the callers with their keys already written.
type stack struct {
	plane   plane
	seed    int64
	sys     *pqs.System
	reps    []*replica.Replica
	tr      transport.Transport
	tcp     *pqs.TCPClient
	keys    []keyState
	callers []*caller
	// closers run at teardown, in order (extra planes built for a traced
	// phase register theirs here too).
	closers []func()
}

// keyState is the ledger of one key. Only the key's owner writes it
// during a run; done is read by every reader.
type keyState struct {
	name  string
	owner uint32
	// done is the stamp counter of the newest write to this key that
	// completed (the owner's stamps all carry its writer id).
	done atomic.Uint64
	// stamps[s-1] is the stamp of the owner's s-th write, recorded when
	// the write returned; checked against read results after the run.
	stamps []ts.Stamp
}

// caller is one closed-loop client: a register client, the writer clock
// it keeps across clients (a traced phase builds a new client over the
// same clock, so its stamps keep dominating), and its measurements.
type caller struct {
	idx    int
	writer uint32
	clock  *ts.Clock
	rng    *rand.Rand
	client *register.Client
	value  []byte

	windows           []window
	reads             []readObs
	attempted, failed int64
	readsOK, notFound int64
	stale, mismatches int64
}

// window holds what one caller completed in one windowLen-long window of
// a measured phase.
type window struct {
	ops               int64
	readLat, writeLat []int64
}

// windowLen is the window the end-to-end metrics are taken over: each is
// the median of its per-window values, so a burst of host noise moves the
// windows it falls in, not the run's result. A window holds ~1.2k reads on
// tcp-mixed, so a dozen samples lie beyond its p99.
const windowLen = time.Second

// window returns the caller's window holding an operation that completed
// at offset at into the phase.
func (c *caller) window(at time.Duration) *window {
	i := int(at / windowLen)
	for len(c.windows) <= i {
		c.windows = append(c.windows, window{})
	}
	return &c.windows[i]
}

// readObs is one successful read's result, verified against the owner's
// stamp ledger after the run.
type readObs struct {
	key   int32
	seq   uint32
	stamp ts.Stamp
}

// newRegisterClient builds a client exactly as pqs.NewClient does for a
// benign system, but over any quorum.System and Transport, so a traced
// stack can hand it span wrappers.
func newRegisterClient(sys quorum.System, tr transport.Transport, seed int64, clock *ts.Clock, spares int) (*register.Client, error) {
	return register.NewClient(register.Options{
		System:    sys,
		Mode:      register.Benign,
		Transport: tr,
		Rand:      rand.New(rand.NewSource(seed)),
		Clock:     clock,
		Spares:    spares,
	})
}

func callerSeed(seed int64, idx int) int64 { return seed*1_000_003 + int64(idx) + 1 }

// buildStack constructs the cluster, the callers and their keys, and
// writes every key once (the prefill).
func buildStack(p plane, seed int64) (*stack, error) {
	sys, err := pqs.New(pqs.Config{N: closedN, Q: closedQ})
	if err != nil {
		return nil, err
	}
	s := &stack{plane: p, seed: seed, sys: sys}
	for i := 0; i < closedN; i++ {
		s.reps = append(s.reps, replica.New(quorum.ServerID(i)))
	}
	if err := s.buildPlane(nil); err != nil {
		s.close()
		return nil, err
	}
	s.keys = make([]keyState, callers*keysPerCaller)
	for k := range s.keys {
		s.keys[k].name = "k" + strconv.Itoa(k)
		s.keys[k].owner = uint32(k/keysPerCaller + 1)
	}
	for i := 0; i < callers; i++ {
		c := &caller{
			idx:    i,
			writer: uint32(i + 1),
			clock:  ts.NewClock(uint32(i + 1)),
			rng:    rand.New(rand.NewSource(callerSeed(seed, i) ^ 0x5eed)),
			value:  make([]byte, 0, valueSize),
		}
		c.client, err = newRegisterClient(sys, s.tr, callerSeed(seed, i), c.clock, 0)
		if err != nil {
			s.close()
			return nil, err
		}
		s.callers = append(s.callers, c)
	}
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for _, c := range s.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for j := 0; j < keysPerCaller && errs[c.idx] == nil; j++ {
				errs[c.idx] = s.write(context.Background(), c, c.idx*keysPerCaller+j)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	if err := s.spreadPrefill(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// spreadPrefill hands every replica the prefill write of every key, as a
// finished gossip round would: each replica then stores every key, the
// size a long run's stores grow to anyway. Measuring starts from that
// steady state, not while the stores' maps are still growing.
func (s *stack) spreadPrefill() error {
	ctx := context.Background()
	for k := range s.keys {
		ks := &s.keys[k]
		// A fresh value per key: replicas keep the slice they are handed.
		req := wire.WriteRequest{Key: ks.name, Value: encodeValue(nil, ks.owner, k, 1), Stamp: ks.stamps[0]}
		for _, rep := range s.reps {
			if _, err := rep.Handle(ctx, req); err != nil {
				return fmt.Errorf("prefill spread: %w", err)
			}
		}
	}
	return nil
}

// buildPlane puts the replicas behind a data plane — each wrapped in a
// span handler when t is non-nil — and returns with s.tr reaching them.
func (s *stack) buildPlane(t *tracer) error {
	handler := func(r *replica.Replica) transport.Handler {
		if t != nil {
			return tracedHandler{inner: r, t: t}
		}
		return r
	}
	switch s.plane {
	case planeMem:
		net := transport.NewMemNetwork(s.seed)
		for _, r := range s.reps {
			net.Register(r.ID(), handler(r))
		}
		s.tr = net
	case planeTCP:
		addrs := make(map[int]string, len(s.reps))
		for _, r := range s.reps {
			srv, err := transport.ListenTCPCodec("127.0.0.1:0", handler(r), transport.CodecBinary)
			if err != nil {
				return err
			}
			s.closers = append(s.closers, func() { srv.Close() })
			addrs[int(r.ID())] = srv.Addr()
		}
		cl, err := pqs.Dial(addrs)
		if err != nil {
			return err
		}
		s.closers = append(s.closers, func() { cl.Close() })
		s.tcp, s.tr = cl, cl
	}
	return nil
}

func (s *stack) close() {
	for _, c := range s.closers {
		c()
	}
	s.closers = nil
}

// write issues the owner's next write to key k and records its stamp.
func (s *stack) write(ctx context.Context, c *caller, k int) error {
	ks := &s.keys[k]
	seq := uint32(len(ks.stamps) + 1)
	c.value = encodeValue(c.value[:0], c.writer, k, seq)
	res, err := c.client.Write(ctx, ks.name, c.value)
	ks.stamps = append(ks.stamps, res.Stamp)
	if err != nil {
		return err
	}
	ks.done.Store(res.Stamp.Counter)
	return nil
}

// encodeValue writes the valueSize-byte value of the owner's seq-th write
// to key k: "w<writer> k<key> s<seq> " in fixed-width decimal, then a
// filler derived from the three fields.
func encodeValue(dst []byte, writer uint32, k int, seq uint32) []byte {
	dst = append(dst, 'w')
	dst = appendFixed(dst, uint64(writer), 3)
	dst = append(dst, ' ', 'k')
	dst = appendFixed(dst, uint64(k), 5)
	dst = append(dst, ' ', 's')
	dst = appendFixed(dst, uint64(seq), 10)
	dst = append(dst, ' ')
	for len(dst) < valueSize {
		dst = append(dst, byte('a'+(uint32(len(dst))*7+seq+uint32(k)+writer)%26))
	}
	return dst
}

// seqOffset is where encodeValue puts the sequence digits.
const seqOffset = 13

func appendFixed(dst []byte, v uint64, width int) []byte {
	var d [20]byte
	for i := width - 1; i >= 0; i-- {
		d[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, d[:width]...)
}

// decodeSeq reads the sequence field back out of a value (0 when the
// field is malformed).
func decodeSeq(v []byte) uint32 {
	if len(v) < seqOffset+10 {
		return 0
	}
	n, err := strconv.ParseUint(string(v[seqOffset:seqOffset+10]), 10, 32)
	if err != nil {
		return 0
	}
	return uint32(n)
}

// phase is one measured interval of closed-loop traffic.
type phase struct {
	wall time.Duration
	ops  int64
}

// run drives every caller closed-loop for d, replacing the callers'
// windows with the phase's. With t non-nil each operation is an op span
// (the clients must already be the traced ones).
func (s *stack) run(d time.Duration, t *tracer) phase {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	ops := make([]int64, len(s.callers))
	for _, c := range s.callers {
		c.windows = c.windows[:0]
		var agg *opAgg
		if t != nil {
			agg = t.newAgg()
		}
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			ops[c.idx] = s.loop(c, start, &stop, t, agg)
		}(c)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	ph := phase{wall: time.Since(start)}
	for _, n := range ops {
		ph.ops += n
	}
	return ph
}

// loop is one caller's closed loop; it returns the operations it issued.
func (s *stack) loop(c *caller, phaseStart time.Time, stop *atomic.Bool, t *tracer, agg *opAgg) int64 {
	ctx := context.Background()
	var n int64
	for !stop.Load() {
		n++
		write := c.rng.Float64() < writeFrac
		var k int
		if write {
			k = c.idx*keysPerCaller + c.rng.Intn(keysPerCaller)
		} else {
			k = c.rng.Intn(len(s.keys))
		}
		ks := &s.keys[k]
		opCtx := ctx
		start := time.Now()
		var op *opSpan
		if t != nil {
			opCtx, op = t.begin(ctx, start)
		}
		if write {
			err := s.write(opCtx, c, k)
			end := time.Now()
			if op != nil {
				agg.end(op, end)
			}
			w := c.window(end.Sub(phaseStart))
			w.ops++
			w.writeLat = append(w.writeLat, int64(end.Sub(start)))
			c.attempted++
			if err != nil {
				c.failed++
			}
			continue
		}
		done := ks.done.Load()
		rr, err := c.client.Read(opCtx, ks.name)
		end := time.Now()
		if op != nil {
			agg.end(op, end)
		}
		w := c.window(end.Sub(phaseStart))
		w.ops++
		w.readLat = append(w.readLat, int64(end.Sub(start)))
		c.attempted++
		if err != nil {
			c.failed++
			continue
		}
		c.readsOK++
		// Stale: older than the newest write that completed before the
		// read started (a read that found nothing is older than all).
		if !rr.Found {
			c.notFound++
			c.stale++
			continue
		}
		if rr.Stamp.Less(ts.Stamp{Counter: done, Writer: ks.owner}) {
			c.stale++
		}
		seq := decodeSeq(rr.Value)
		c.value = encodeValue(c.value[:0], ks.owner, k, seq)
		if seq == 0 || !bytes.Equal(c.value, rr.Value) {
			c.mismatches++
			continue
		}
		c.reads = append(c.reads, readObs{key: int32(k), seq: seq, stamp: rr.Stamp})
	}
	return n
}

// checkValues verifies every recorded read against the owners' stamp
// ledgers: the value names its write, and the read's stamp must be the
// stamp that write got. Call it with no caller running.
func (s *stack) checkValues() (mismatches int64) {
	for _, c := range s.callers {
		mismatches += c.mismatches
		for _, o := range c.reads {
			st := s.keys[o.key].stamps
			if int(o.seq) > len(st) || st[o.seq-1] != o.stamp {
				mismatches++
			}
		}
	}
	return mismatches
}

// runClosed builds the stack, measures on it and checks its outputs. An
// untraced run is one part of a multi-process run (parts.go).
func runClosed(cfg closedConfig) (*report, error) {
	r := newReport()
	t0 := time.Now()
	s, err := buildStack(cfg.plane, cfg.seed)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	defer s.close()
	if cfg.fault != nil {
		cfg.fault(s)
	}
	r.note("%s: n=%d q=%d callers=%d keys=%d write_frac=%.2f value=%dB exact_eps=%.6g", cfg.plane, closedN, closedQ, callers, len(s.keys), writeFrac, valueSize, s.sys.Epsilon())
	// Warm up (dispatch worker pools, the garbage of set-up) before timing;
	// the warm-up's operations are checked like every other.
	s.run(warmup, nil)
	if cfg.traced {
		if err := s.traced(r, cfg.measure); err != nil {
			return nil, err
		}
	} else {
		s.endToEnd(r, s.run(cfg.measure, nil), setup)
	}
	s.check(r)
	return r, nil
}

// endToEnd reports the untraced metrics of one phase: the median, over
// the phase's whole windows, of each window's throughput and latency
// percentiles (a phase shorter than one window is one window). The
// sample counts are the operations in those windows.
func (s *stack) endToEnd(r *report, ph phase, setup time.Duration) {
	n, span := int(ph.wall/windowLen), windowLen
	if n == 0 {
		n, span = 1, ph.wall
	}
	var rate, readP50, readP99, writeP50, writeP99 []float64
	var ops, nReads, nWrites int
	for i := 0; i < n; i++ {
		var wops int64
		var reads, writes []int64
		for _, c := range s.callers {
			if i < len(c.windows) {
				w := &c.windows[i]
				wops += w.ops
				reads = append(reads, w.readLat...)
				writes = append(writes, w.writeLat...)
			}
		}
		sortNs(reads)
		sortNs(writes)
		ops, nReads, nWrites = ops+int(wops), nReads+len(reads), nWrites+len(writes)
		rate = append(rate, float64(wops)/span.Seconds())
		readP50 = append(readP50, quantile(reads, 0.50)/1e3)
		readP99 = append(readP99, quantile(reads, 0.99)/1e3)
		writeP50 = append(writeP50, quantile(writes, 0.50)/1e3)
		writeP99 = append(writeP99, quantile(writes, 0.99)/1e3)
	}
	r.set("ops_per_s", median(rate), ops)
	r.set("read_p50_us", median(readP50), nReads)
	r.set("read_p99_us", median(readP99), nReads)
	r.set("write_p50_us", median(writeP50), nWrites)
	r.set("write_p99_us", median(writeP99), nWrites)
	r.set("setup_s", setup.Seconds(), 1)
}

// check runs the correctness checks over everything the callers did.
func (s *stack) check(r *report) {
	var reads, stale, notFound int64
	for _, c := range s.callers {
		r.attempted += c.attempted
		r.failed += c.failed
		reads += c.readsOK
		stale += c.stale
		notFound += c.notFound
	}
	mism := s.checkValues()
	eps := s.sys.Epsilon()
	// One-sided p-value: P[X >= stale] for X ~ Binomial(reads, ε).
	p := combin.BinomialTailGE(int(reads), eps, int(stale))
	r.note("checks: reads=%d stale=%d (not found %d) stale_frac=%.6g exact_eps=%.6g p=%.3g value_mismatches=%d failed=%d/%d",
		reads, stale, notFound, float64(stale)/float64(max(reads, 1)), eps, p, mism, r.failed, r.attempted)
	if mism > 0 {
		r.fail("value check: %d reads returned a value that does not match its stamp", mism)
	}
	if p < staleAlpha {
		r.fail("staleness check: %d stale of %d reads is above ε=%.6g (one-sided binomial p=%.3g < %g)", stale, reads, eps, p, staleAlpha)
	}
}

// traced runs the traced-run pair on s: half of d untraced (the overhead
// baseline, which also gives the process-wide runtime counters), then half
// of d on a traced stack — a second data plane over the same replicas with
// span handlers, and clients over the span-wrapped system and transport
// (each caller keeps its writer clock, so its stamps keep dominating) —
// under a CPU profile.
func (s *stack) traced(r *report, d time.Duration) error {
	probe := startRuntimeProbe()
	base := s.run(d/2, nil)
	rt := probe.stop(base.ops)

	t := newTracer()
	if err := s.buildPlane(t); err != nil {
		return err
	}
	sys, tr := traceSystem(s.sys, t), traceTransport(s.tr, t)
	for _, c := range s.callers {
		var err error
		c.client, err = newRegisterClient(sys, tr, callerSeed(s.seed, c.idx)+1<<32, c.clock, 0)
		if err != nil {
			return err
		}
	}
	var tcp0 transport.TCPStats
	if s.tcp != nil {
		tcp0 = s.tcp.Stats()
	}
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	ph := s.run(d/2, t)
	shares, err := prof.stop()
	if err != nil {
		return err
	}

	tot := t.totals()
	ops := float64(tot.ops)
	calls := float64(tot.calls)
	sortNs(tot.callDurs)
	handles, handleNs := t.handles.Load(), t.handleNs.Load()
	r.set("register.self_us_per_op", float64(tot.selfNs)/ops/1e3, int(tot.ops))
	r.set("register.dispatch_wait_us", float64(tot.dispatchNs)/calls/1e3, int(tot.calls))
	r.set("register.tail_gap_us", float64(tot.tailNs)/ops/1e3, int(tot.ops))
	r.set("transport.calls_per_op", calls/ops, int(tot.ops))
	r.set("transport.call_us_p50", quantile(tot.callDurs, 0.50)/1e3, len(tot.callDurs))
	r.set("transport.call_us_p99", quantile(tot.callDurs, 0.99)/1e3, len(tot.callDurs))
	r.set("transport.self_us_per_call", float64(tot.callNs-handleNs)/calls/1e3, int(tot.calls))
	r.set("transport.err_per_op", float64(tot.callErrs)/ops, int(tot.ops))
	if s.tcp != nil {
		st := s.tcp.Stats()
		frames := st.FramesRead + st.FramesWritten - tcp0.FramesRead - tcp0.FramesWritten
		bytes := st.BytesRead + st.BytesWritten - tcp0.BytesRead - tcp0.BytesWritten
		r.set("transport.frames_per_op", float64(frames)/ops, int(tot.ops))
		r.set("transport.bytes_per_op", float64(bytes)/ops, int(tot.ops))
	}
	wireNs, pairs, err := t.wireRoundTrip(200 * time.Millisecond)
	if err != nil {
		return err
	}
	r.set("wire.encode_decode_ns", wireNs, pairs)
	r.set("replica.handle_ns", float64(handleNs)/float64(handles), int(handles))
	r.set("replica.handles_per_op", float64(handles)/ops, int(tot.ops))
	entries := 0
	for _, rep := range s.reps {
		entries += rep.Store().Len()
	}
	r.set("replica.store_entries", float64(entries), len(s.reps))
	picks := t.picks.Load()
	r.set("quorum.pick_ns", float64(t.pickNs.Load())/float64(picks), int(picks))
	r.set("quorum.picks_per_op", float64(picks)/ops, int(tot.ops))
	rt.report(r, int(base.ops))
	baseRate, tracedRate := float64(base.ops)/base.wall.Seconds(), ops/ph.wall.Seconds()
	r.set("trace.overhead_frac", 1-tracedRate/baseRate, 2)
	r.note("traced: untraced %.1f ops/s (%d ops), traced %.1f ops/s (%d ops), orphan calls %d", baseRate, base.ops, tracedRate, tot.ops, t.orphanCalls.Load())
	shares.report(r)
	return nil
}
