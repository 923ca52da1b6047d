// Package register implements the paper's replicated-variable access
// protocols on top of a quorum system and a transport: the multi-reader
// single-writer protocol of Section 3.1 (benign failures), the verifiable
// read protocol of Section 4 ((b, ε)-dissemination systems, self-verifying
// data) and the threshold read protocol of Section 5.2 ((b, ε)-masking
// systems, arbitrary data).
//
// The protocols approximate a safe variable: Theorems 3.2, 4.2 and 5.2 show
// that a read not concurrent with any write returns the last written value
// with probability at least 1-ε. The sim package measures exactly this.
package register

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/sv"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// Mode selects which of the paper's three access protocols a client runs.
type Mode int

// Protocol modes.
const (
	// Benign is the Section 3.1 protocol: highest timestamp wins.
	Benign Mode = iota + 1
	// Dissemination is the Section 4 protocol: only verifiable (signed)
	// replies are considered, then highest timestamp wins.
	Dissemination
	// Masking is the Section 5.2 protocol: only values vouched for by at
	// least K servers are considered, then highest timestamp wins.
	Masking
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Benign:
		return "benign"
	case Dissemination:
		return "dissemination"
	case Masking:
		return "masking"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Errors returned by the client. Match with errors.Is.
var (
	// ErrNoReplies indicates no server in the chosen quorum answered.
	ErrNoReplies = errors.New("register: no replies from quorum")
	// ErrPartialWrite indicates fewer than the full quorum acknowledged a
	// write under RequireFullWrite.
	ErrPartialWrite = errors.New("register: write reached only part of the quorum")
)

// permanentNoReplies marks an ErrNoReplies outcome in which every member
// failure was classified permanent (codec mismatch, unsupported payload):
// re-sampling another quorum cannot help, so transport.IsPermanent matches
// it and RetryingClient stops retrying. It wraps the plain error, so
// errors.Is(err, ErrNoReplies) keeps matching.
type permanentNoReplies struct{ err error }

func (e *permanentNoReplies) Error() string   { return e.err.Error() }
func (e *permanentNoReplies) Unwrap() error   { return e.err }
func (e *permanentNoReplies) Permanent() bool { return true }

// noRepliesError wraps the zero-reply failure, marking it permanent when
// every member error carries a permanent classification.
func noRepliesError(err error, errs map[quorum.ServerID]error) error {
	if len(errs) == 0 {
		return err
	}
	for _, merr := range errs {
		if !transport.IsPermanent(merr) {
			return err
		}
	}
	return &permanentNoReplies{err: err}
}

// Options configures a Client.
type Options struct {
	// System supplies quorums; its built-in access strategy is what the
	// ε analysis assumes, so the client never deviates from it.
	System quorum.System
	// Mode selects the access protocol.
	Mode Mode
	// K is the masking read threshold (required when Mode == Masking;
	// use the K() of a core.Masking system).
	K int
	// Transport delivers RPCs.
	Transport transport.Transport
	// Rand drives the access strategy. Required.
	Rand *rand.Rand
	// Clock issues write timestamps. Required for writers.
	Clock *ts.Clock
	// Signer, when set, signs writes (self-verifying data).
	Signer ed25519.PrivateKey
	// Registry verifies replies in Dissemination mode. Required for
	// dissemination readers.
	Registry *sv.Registry
	// RequireFullWrite makes Write fail with ErrPartialWrite unless every
	// quorum member acknowledged. The paper's analysis assumes updates
	// reach the whole chosen quorum; leaving this false (best effort)
	// trades a further ε degradation for availability.
	RequireFullWrite bool
	// ReadRepair pushes the value a read accepted back to the read-quorum
	// members observed to be stale, with its original signature. Valid in
	// Benign and Dissemination modes; rejected in Masking mode, where a
	// fooled read must not persist a fabricated value onto correct servers.
	ReadRepair bool

	// Spares is the number of extra servers sampled alongside every access
	// set (oversampling). A spare is dispatched ("promoted") when a member's
	// call fails, or each time HedgeDelay elapses without the operation
	// completing. Requires System to implement quorum.SpareSampler.
	//
	// Promotion preserves the attempt-level ε argument documented on
	// RetryingClient: spares are drawn by the same strategy and promoted
	// only on observed failure or on an identity-blind timer, so the access
	// set that completes is the strategy's sample conditioned on liveness —
	// the same conditioning a full re-sample performs. With spares in play,
	// RequireFullWrite is satisfied by quorum-size acknowledgements, whether
	// they came from original members or promoted spares.
	Spares int
	// HedgeDelay, when positive, promotes one spare each time this delay
	// elapses before the operation completes (latency hedging). Zero means
	// spares are promoted only on observed member failure. With
	// AdaptiveHedge set this is only the bootstrap value used until the
	// latency estimator has warmed up.
	HedgeDelay time.Duration
	// AdaptiveHedge derives the hedge delay from an online latency
	// estimate instead of the fixed HedgeDelay: the client keeps a pooled
	// EWMA of reply latency (SRTT) and an EWMA of its deviation (RTTVAR,
	// Jacobson/Karels gains) and hedges at SRTT + HedgeDeviations·RTTVAR —
	// an upper-quantile estimate that tracks the cluster as it speeds up
	// or degrades. Per-server EWMAs are kept for observability
	// (ServerLatencies) but never steer the delay: the hedge timer stays a
	// function of pooled history from past operations only, independent of
	// which servers the current access set contains, preserving the
	// identity-blind-timer premise of the ε argument above. Requires
	// Spares > 0 and a positive HedgeDelay (the pre-warmup bootstrap).
	AdaptiveHedge bool
	// HedgeDeviations is the adaptive-hedge quantile knob: the number of
	// deviations above the latency EWMA at which the hedge fires.
	// 0 means the default (4, the classic RTO multiplier).
	HedgeDeviations float64
	// Time supplies timers, sleeps and latency measurement. Nil means the
	// wall clock. The sim and chaos harnesses install a vtime.SimClock,
	// which makes hedge timers deterministic and virtual-latency runs
	// complete in wall-clock milliseconds; every goroutine the client
	// spawns then registers with the SimClock scheduler.
	Time vtime.Clock
	// EagerRead makes Read return as soon as the mode's acceptance rule is
	// decidable instead of waiting for every dispatched call:
	//
	//   - Benign: quorum-size replies collected;
	//   - Dissemination: quorum-size replies plus at least one verified one;
	//   - Masking: some pair holds K vouchers and no rival (seen or unseen)
	//     can still reach K with the replies outstanding.
	//
	// Remaining replies are drained in the background (see Stats and
	// WaitDrained); with ReadRepair set, late stale repliers are repaired
	// from the drain as well.
	EagerRead bool
	// W, when between 1 and the quorum size, completes Write as soon as W
	// members acknowledged, leaving the rest to the background drain. Zero
	// (or RequireFullWrite) keeps the default: wait for the full access set.
	// W below the quorum size trades a further ε degradation for latency,
	// exactly as best-effort writes already do; the calls already in flight
	// keep delivering the write to the remaining members as long as the
	// operation's context stays live (cancelling it aborts them).
	W int

	// Cells partitions the keyspace across this many independent quorum
	// cells. Cell i is a full copy of the configured system over servers
	// [i*n, (i+1)*n) of the Transport, where n = System.N(); a consistent-
	// hash ring (internal/ring) routes each key to one cell, and all
	// protocol state — strategy, ε budget, hedging, stats — is per cell.
	// 0 or 1 means the classic single-cell client over servers [0, n).
	Cells int
	// RingVnodes is the virtual-node count per cell on the routing ring
	// (0 = ring.DefaultVnodes). Only meaningful with Cells > 1.
	RingVnodes int

	// InlineDispatch, under a SimClock, runs each member call synchronously
	// on the issuing worker instead of spawning a scheduler worker per
	// call, and the gather consumes the already-buffered replies without
	// parking. This collapses the per-operation scheduler cost from
	// O(quorum) worker spawns and timer handshakes to roughly zero, which
	// is what makes million-op population runs (internal/load) affordable.
	// Only sensible on a zero-latency transport: a transport that sleeps
	// per call would serialize those sleeps on the issuing worker. Ignored
	// without a SimClock: under the wall clock, calls the transport can
	// finish without waiting already run on the issuing goroutine with no
	// option needed (transport.Immediate; see dispatch in access.go).
	InlineDispatch bool
}

// cell is the per-cell gather engine: it runs the paper's access protocols
// against ONE quorum cell — a universe of Options.System.N() servers
// addressed in cell-local ids [0, n). Client (router.go) routes every key
// to one cell; a single-cell client is a Client wrapping exactly one of
// these. All dispatch, hedging, spare promotion and drain state lives
// here, per cell and identity-blind, so the ε-preservation argument (and
// the epsblind analyzer) applies to each cell independently.
//
// It is safe for concurrent use, though the single-writer protocol
// requires that at most one client writes any given key.
type cell struct {
	opts Options

	// clock is Options.Time or the wall clock; sched is non-nil when it is
	// a vtime.SimClock, switching every spawn and blocking wait to the
	// scheduler's discipline (see access.go).
	clock vtime.Clock
	sched *vtime.SimClock

	mu       sync.Mutex // guards rng (not goroutine safe) and pickFree
	rng      *rand.Rand
	pickFree [][]quorum.ServerID // recycled sampling buffers (see access.go)

	// jobs hands dispatch work to idle pooled workers (wall mode only; see
	// dispatch in access.go).
	jobs chan dispatchJob

	// lat is the adaptive-hedge latency estimator; hedgeK its quantile
	// knob (Options.HedgeDeviations resolved).
	lat    latencyEstimator
	hedgeK float64

	// health is non-nil when the transport reports per-server reachability
	// (a breaker-enabled TCPClient): dispatch fails known-down members at
	// t=0 so the gather promotes spares immediately (see access.go).
	health transport.HealthReporter

	// imm is non-nil when the transport can run a call that will not wait
	// on the issuing goroutine (a MemNetwork with no delay configured):
	// wall-mode dispatch tries it before the worker pool (see access.go).
	imm transport.Immediate

	accessCounters
	drainWG *vtime.WaitGroup
}

// newCell validates the option combination and returns a per-cell engine.
// NewClient (router.go) is the public constructor; it calls this once per
// cell with an Offset transport and a cell-private rng.
func newCell(opts Options) (*cell, error) {
	if opts.System == nil {
		return nil, errors.New("register: Options.System is required")
	}
	if opts.Transport == nil {
		return nil, errors.New("register: Options.Transport is required")
	}
	if opts.Rand == nil {
		return nil, errors.New("register: Options.Rand is required")
	}
	switch opts.Mode {
	case Benign:
	case Dissemination:
		if opts.Registry == nil {
			return nil, errors.New("register: dissemination mode requires Options.Registry")
		}
	case Masking:
		if opts.K < 1 {
			return nil, fmt.Errorf("register: masking mode requires K >= 1, got %d", opts.K)
		}
		if opts.ReadRepair {
			return nil, errors.New("register: read repair is unsafe in masking mode (a fooled read would persist a fabricated value)")
		}
	default:
		return nil, fmt.Errorf("register: unknown mode %d", opts.Mode)
	}
	if opts.Spares < 0 {
		return nil, fmt.Errorf("register: Spares %d must be non-negative", opts.Spares)
	}
	if opts.Spares > 0 && !spareCapable(opts.System) {
		return nil, fmt.Errorf("register: system %s cannot supply spares (no quorum.SpareSampler)", opts.System.Name())
	}
	if opts.HedgeDelay < 0 {
		return nil, fmt.Errorf("register: HedgeDelay %v must be non-negative", opts.HedgeDelay)
	}
	if opts.W < 0 {
		return nil, fmt.Errorf("register: W %d must be non-negative", opts.W)
	}
	if opts.HedgeDeviations < 0 {
		return nil, fmt.Errorf("register: HedgeDeviations %v must be non-negative", opts.HedgeDeviations)
	}
	if opts.AdaptiveHedge {
		if opts.Spares <= 0 {
			return nil, errors.New("register: AdaptiveHedge requires Spares > 0")
		}
		if opts.HedgeDelay <= 0 {
			return nil, errors.New("register: AdaptiveHedge requires a positive HedgeDelay bootstrap")
		}
	}
	clk := vtime.Or(opts.Time)
	sched, _ := clk.(*vtime.SimClock)
	k := opts.HedgeDeviations
	if k == 0 {
		k = defaultHedgeDeviations
	}
	c := &cell{
		opts:    opts,
		clock:   clk,
		sched:   sched,
		rng:     opts.Rand,
		jobs:    make(chan dispatchJob),
		hedgeK:  k,
		drainWG: vtime.NewWaitGroup(clk),
	}
	if hr, ok := opts.Transport.(transport.HealthReporter); ok {
		c.health = hr
	}
	if im, ok := opts.Transport.(transport.Immediate); ok {
		c.imm = im
	}
	return c, nil
}

// Mode returns the client's protocol mode.
func (c *cell) Mode() Mode { return c.opts.Mode }

// System returns the client's quorum system.
func (c *cell) System() quorum.System { return c.opts.System }

// WriteResult reports the outcome of a write.
type WriteResult struct {
	// Quorum is the access set chosen by the strategy. The caller owns the
	// slice (the client samples into a reused internal buffer and copies it
	// here, so concurrent operations can never rewrite a returned result).
	Quorum []quorum.ServerID
	// Acked lists the members (or promoted spares) that acknowledged before
	// the write completed; late acknowledgements land in Stats.
	Acked []quorum.ServerID
	// Errs maps failed members to their errors (nil when none failed).
	Errs map[quorum.ServerID]error
	// Stamp is the timestamp assigned to this write.
	Stamp ts.Stamp
	// Promoted counts spares dispatched during this write.
	Promoted int
	// Early reports whether the write returned at its completion threshold
	// while calls were still outstanding (drained in the background).
	Early bool
}

// Write performs the Section 3.1 write protocol: choose a quorum, choose a
// timestamp greater than any previous one, install the value at every
// member. The value slice is not retained. With Options.W set, the write
// completes at W acknowledgements; with Options.Spares, failed or lagging
// members are hedged with spare servers.
func (c *cell) Write(ctx context.Context, key string, value []byte) (WriteResult, error) {
	if c.opts.Clock == nil {
		return WriteResult{}, errors.New("register: client has no clock; cannot write")
	}
	q, spares := c.pickWithSpares()
	defer c.recyclePick(q)
	stamp := c.opts.Clock.Next()
	val := make([]byte, len(value))
	copy(val, value)
	var sig []byte
	if c.opts.Signer != nil {
		sig = sv.Sign(c.opts.Signer, key, val, stamp)
	}
	req := wire.WriteRequest{Key: key, Value: val, Stamp: stamp, Sig: sig}

	res := WriteResult{Quorum: append([]quorum.ServerID(nil), q...), Stamp: stamp}
	target := len(q)
	if !c.opts.RequireFullWrite && c.opts.W > 0 && c.opts.W < target {
		target = c.opts.W
	}
	out := c.gather(ctx, gatherSpec{
		req:    req,
		quorum: q,
		spares: spares,
		onOK: func(id quorum.ServerID, _ any) error {
			res.Acked = append(res.Acked, id)
			return nil
		},
		decided: func(ok, _ int) bool { return ok >= target },
	})
	res.Errs = out.errs
	res.Promoted = out.promoted
	res.Early = out.early
	c.drain(out, nil) // late acks still improve durability; count them
	if len(res.Acked) == 0 {
		if out.ctxErr != nil {
			return res, out.ctxErr
		}
		return res, noRepliesError(fmt.Errorf("%w: all %d members failed", ErrNoReplies, len(q)), out.errs)
	}
	if c.opts.RequireFullWrite && len(res.Acked) < len(q) {
		return res, fmt.Errorf("%w: %d/%d acknowledged", ErrPartialWrite, len(res.Acked), len(q))
	}
	return res, nil
}

// ReadResult reports the outcome of a read.
type ReadResult struct {
	// Quorum is the access set chosen by the strategy. The caller owns the
	// slice (the client samples into a reused internal buffer and copies it
	// here, so concurrent operations can never rewrite a returned result).
	Quorum []quorum.ServerID
	// Found reports whether any value passed the mode's acceptance rule.
	// The masking protocol's ⊥ outcome is Found == false with nil error.
	Found bool
	// Value and Stamp are the accepted value-timestamp pair.
	Value []byte
	Stamp ts.Stamp
	// Replies counts servers that answered at all.
	Replies int
	// Vouchers counts servers that vouched for the accepted pair.
	Vouchers int
	// Discarded counts replies rejected by verification (dissemination) or
	// left under threshold (masking).
	Discarded int
	// Repaired counts quorum members the read pushed the accepted value
	// back to (only with Options.ReadRepair).
	Repaired int
	// Promoted counts spares dispatched during this read.
	Promoted int
	// Early reports whether the read returned at its mode's completion
	// threshold while calls were still outstanding (drained in the
	// background).
	Early bool
}

// voteKey identifies a value-timestamp candidate in the masking vote count.
type voteKey struct {
	stamp ts.Stamp
	value string
}

// maskDecided reports whether the Section 5.2 acceptance rule is already
// decidable: some candidate holds at least k vouchers, and no rival with a
// higher timestamp — seen (current vouchers + outstanding < k) or unseen
// (outstanding < k) — can still reach the threshold.
func maskDecided(votes map[voteKey]int, k, outstanding int) bool {
	if k < 1 || outstanding >= k {
		return false
	}
	var best voteKey
	found := false
	for cand, n := range votes {
		if n >= k && (!found || best.stamp.Less(cand.stamp)) {
			best, found = cand, true
		}
	}
	if !found {
		return false
	}
	for cand, n := range votes {
		if best.stamp.Less(cand.stamp) && n+outstanding >= k {
			return false
		}
	}
	return true
}

// Read performs the mode's read protocol: query every member of a chosen
// quorum, filter replies by the mode's acceptance rule, return the
// highest-timestamped survivor. With Options.EagerRead it returns as soon
// as the acceptance rule is decidable; with Options.Spares, failed or
// lagging members are hedged with spare servers.
func (c *cell) Read(ctx context.Context, key string) (ReadResult, error) {
	q, spares := c.pickWithSpares()
	defer c.recyclePick(q)
	req := wire.ReadRequest{Key: key}

	res := ReadResult{Quorum: append([]quorum.ServerID(nil), q...)}
	collected := make([]wire.ReadReply, 0, len(q))
	var byID map[quorum.ServerID]wire.ReadReply // replies by server, kept only for read repair
	if c.opts.ReadRepair {
		byID = make(map[quorum.ServerID]wire.ReadReply, len(q))
	}
	verified := 0
	var collectedOK []bool    // parallel to collected (Dissemination only)
	var votes map[voteKey]int // vote tally shared by maskDecided and selectMasking
	if c.opts.Mode == Masking {
		votes = make(map[voteKey]int)
	}
	target := len(q)
	var decided func(ok, outstanding int) bool
	if c.opts.EagerRead {
		decided = func(ok, outstanding int) bool {
			switch c.opts.Mode {
			case Benign:
				return ok >= target
			case Dissemination:
				return ok >= target && verified > 0
			case Masking:
				return maskDecided(votes, c.opts.K, outstanding)
			}
			return false
		}
	}
	out := c.gather(ctx, gatherSpec{
		req:    req,
		quorum: q,
		spares: spares,
		onOK: func(id quorum.ServerID, resp any) error {
			msg, ok := resp.(wire.ReadReply)
			if !ok {
				return fmt.Errorf("register: unexpected reply type %T", resp)
			}
			res.Replies++
			if byID != nil {
				byID[id] = msg
			}
			if msg.Found {
				collected = append(collected, msg)
				switch c.opts.Mode {
				case Dissemination:
					// Verify once, here; the selection step reuses the result.
					ok := c.opts.Registry.VerifyEntry(key, msg.Value, msg.Stamp, msg.Sig)
					collectedOK = append(collectedOK, ok)
					if ok {
						verified++
					}
				case Masking:
					votes[voteKey{stamp: msg.Stamp, value: string(msg.Value)}]++
				}
			}
			return nil
		},
		decided: decided,
	})
	res.Promoted = out.promoted
	res.Early = out.early
	if res.Replies == 0 {
		c.drain(out, nil)
		if out.ctxErr != nil {
			return res, out.ctxErr
		}
		return res, noRepliesError(fmt.Errorf("%w: quorum size %d", ErrNoReplies, len(q)), out.errs)
	}

	switch c.opts.Mode {
	case Benign:
		c.selectBenign(&res, collected)
	case Dissemination:
		c.selectDissemination(&res, collected, collectedOK)
	case Masking:
		c.selectMasking(&res, votes)
	}
	if res.Found && c.opts.Clock != nil {
		// A writer that also reads keeps its clock ahead of what it saw.
		c.opts.Clock.Witness(res.Stamp)
	}
	if c.opts.ReadRepair {
		c.repair(ctx, key, &res, byID, out.errs, out.leftover > 0)
	}
	c.drain(out, c.lateReadHandler(ctx, key, &res, byID))
	return res, nil
}

// selectBenign implements step 3 of the Section 3.1 read protocol: the pair
// with the highest timestamp.
func (c *cell) selectBenign(res *ReadResult, replies []wire.ReadReply) {
	for _, r := range replies {
		if !res.Found || res.Stamp.Less(r.Stamp) {
			res.Found = true
			res.Value = r.Value
			res.Stamp = r.Stamp
		}
	}
	for _, r := range replies {
		if res.Found && r.Stamp == res.Stamp && string(r.Value) == string(res.Value) {
			res.Vouchers++
		}
	}
}

// selectDissemination implements steps 3-4 of the Section 4 read protocol:
// compute the verifiable subset V', then take the highest timestamp.
// verified[i] carries the signature check already performed on replies[i]
// when it was collected.
func (c *cell) selectDissemination(res *ReadResult, replies []wire.ReadReply, verified []bool) {
	for i, r := range replies {
		if !verified[i] {
			res.Discarded++
			continue
		}
		if !res.Found || res.Stamp.Less(r.Stamp) {
			res.Found = true
			res.Value = r.Value
			res.Stamp = r.Stamp
		}
	}
	for _, r := range replies {
		if res.Found && r.Stamp == res.Stamp && string(r.Value) == string(res.Value) {
			res.Vouchers++
		}
	}
}

// selectMasking implements steps 3-4 of the Section 5.2 read protocol:
// V' = pairs vouched for by at least K members; highest timestamp in V', or
// ⊥ (Found=false) when V' is empty. votes is the tally Read accumulated
// while collecting replies.
func (c *cell) selectMasking(res *ReadResult, votes map[voteKey]int) {
	for cand, n := range votes {
		if n < c.opts.K {
			res.Discarded += n
			continue
		}
		if !res.Found || res.Stamp.Less(cand.stamp) {
			res.Found = true
			res.Value = []byte(cand.value)
			res.Stamp = cand.stamp
			res.Vouchers = n
		}
	}
}
