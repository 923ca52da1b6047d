// Package chaos is the repo's one write-then-read driver and checker, with
// a deterministic fault-schedule engine for the simulated network: it
// validates the paper's probabilistic guarantees (Theorems 3.2, 4.2 and
// 5.2) both as plain Monte-Carlo trials (an empty or static schedule with
// Keys = Ops, so every pair is an independent trial on a fresh key) and
// against *adversarial* schedules.
//
// The package has four pieces:
//
//   - Engine, a transport.LinkHook whose per-link fault decisions (drop,
//     duplicate, reorder, corrupt, asymmetric blocks) are pure functions of
//     the run seed and a per-link call counter, so every run replays
//     byte-for-byte from its seed;
//   - an adversary-replica library (adversary.go): equivocating replicas,
//     stale echoes, slow lorrises, and colluding forger sets that can target
//     the most-sampled servers of a strategy;
//   - a scenario DSL (schedule.go): Schedule{At(40, Crash(1, 2)),
//     At(80, Heal())} applied at client-operation boundaries, with a library
//     of named scenarios (scenarios.go);
//   - Run (run.go), which drives write-then-read operations against a
//     sim.Cluster under a schedule, records every operation into a History,
//     and hands it to the consistency checker (history.go), which computes
//     an empirical ε and a PBS-style staleness distribution and fails when
//     ε exceeds the configured theorem bound at the configured confidence.
//
// Determinism contract: operations are issued sequentially, every random
// choice (quorum sampling, fault decisions, adversary replies) is derived
// from the run seed through per-link or per-replica counters, and no
// decision depends on reply arrival order. Wall-clock time never enters a
// decision, so the recorded History is identical across runs — the
// determinism regression test locks this in.
package chaos

import (
	"sync"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/wire"
)

// Any is a wildcard endpoint for Block/Unblock: Block(Any, to) severs every
// inbound link of to, Block(from, Any) every outbound link of from.
const Any quorum.ServerID = -2

// The two fault planes must agree on the wildcard value, since block
// actions pass it through to either verbatim; the index is out of range
// at compile time for ANY nonzero difference.
var _ = [1]struct{}{}[Any-transport.Anyone]

// linkKey identifies one directed link. Clients appear as
// transport.ClientSource.
type linkKey struct{ from, to quorum.ServerID }

// Engine is the deterministic per-link fault injector. Install it with
// MemNetwork.SetLinkHook; drive it through the schedule actions or the
// setter methods. All methods are safe for concurrent use.
//
// Every decision is drawn from splitmix64(seed, link, per-link sequence
// number): two runs that issue the same call sequence per link — which the
// Run harness guarantees by issuing operations sequentially — observe the
// same faults in the same places.
type Engine struct {
	seed uint64

	mu         sync.Mutex
	seq        map[linkKey]uint64
	blocked    map[linkKey]bool
	dropP      float64
	dupP       float64
	corruptP   float64
	reorderMax time.Duration
}

// NewEngine returns an engine whose fault pattern is fixed by seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:    uint64(seed),
		seq:     make(map[linkKey]uint64),
		blocked: make(map[linkKey]bool),
	}
}

// splitmix64 is the standard 64-bit finalizer (same as the transport
// package's); it decorrelates the per-call decision words.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a decision word to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// SetDrop sets the per-call loss probability applied by the engine
// (deterministically, unlike MemNetwork.SetDropProb's legacy path it
// subsumes in chaos runs).
func (e *Engine) SetDrop(p float64) { e.mu.Lock(); e.dropP = p; e.mu.Unlock() }

// SetDuplicate sets the probability that a call is delivered twice.
func (e *Engine) SetDuplicate(p float64) { e.mu.Lock(); e.dupP = p; e.mu.Unlock() }

// SetCorrupt sets the probability that a call's message is re-encoded with
// a flipped bit (frame corruption). Messages that no longer decode are
// dropped, matching the TCP transport's treatment of a corrupt stream;
// messages that still decode are delivered corrupted, exercising the
// protocol's end-to-end defenses (signatures, thresholds).
func (e *Engine) SetCorrupt(p float64) { e.mu.Lock(); e.corruptP = p; e.mu.Unlock() }

// SetReorder sets the maximum extra delivery delay injected per call
// (jitter). Under the Run harness — one outstanding call per link — this
// shuffles reply arrival order across an operation's access set rather
// than overtaking messages on a single link; true per-link overtaking
// additionally needs concurrent traffic on the link (e.g. concurrent
// clients sharing a MemNetwork). Either way no recorded decision may
// depend on the resulting timing, which the determinism tests enforce.
func (e *Engine) SetReorder(d time.Duration) { e.mu.Lock(); e.reorderMax = d; e.mu.Unlock() }

// Block severs the directed link from→to: calls on it fail with
// ErrDropped. Either endpoint may be Any (wildcard), and from may be
// transport.ClientSource to cut clients off a server while leaving
// server-to-server traffic (gossip) intact — an asymmetric partition no
// partition-group model can express.
func (e *Engine) Block(from, to quorum.ServerID) {
	e.mu.Lock()
	e.blocked[linkKey{from, to}] = true
	e.mu.Unlock()
}

// Unblock restores the directed link from→to (exact key match with a prior
// Block call).
func (e *Engine) Unblock(from, to quorum.ServerID) {
	e.mu.Lock()
	delete(e.blocked, linkKey{from, to})
	e.mu.Unlock()
}

// Heal removes every block and zeroes every fault probability.
func (e *Engine) Heal() {
	e.mu.Lock()
	e.blocked = make(map[linkKey]bool)
	e.dropP, e.dupP, e.corruptP, e.reorderMax = 0, 0, 0, 0
	e.mu.Unlock()
}

// FilterCall implements transport.LinkHook.
func (e *Engine) FilterCall(from, to quorum.ServerID, req any) transport.CallFault {
	key := linkKey{from, to}
	e.mu.Lock()
	if e.blocked[key] || e.blocked[linkKey{Any, to}] || e.blocked[linkKey{from, Any}] {
		e.mu.Unlock()
		return transport.CallFault{Drop: true}
	}
	e.seq[key]++
	seq := e.seq[key]
	dropP, dupP, corruptP, reorderMax := e.dropP, e.dupP, e.corruptP, e.reorderMax
	e.mu.Unlock()

	if dropP == 0 && dupP == 0 && corruptP == 0 && reorderMax == 0 {
		return transport.CallFault{}
	}
	// One decision word per call, sub-draws per fault class, all derived
	// from (seed, link, seq) only.
	base := splitmix64(e.seed ^ uint64(from+3)<<40 ^ uint64(to+3)<<20 ^ seq)
	var fault transport.CallFault
	if dropP > 0 && unit(splitmix64(base^0x01)) < dropP {
		fault.Drop = true
		return fault
	}
	if dupP > 0 && unit(splitmix64(base^0x02)) < dupP {
		fault.Duplicate = true
	}
	if reorderMax > 0 {
		fault.Delay = time.Duration(unit(splitmix64(base^0x03)) * float64(reorderMax))
	}
	if corruptP > 0 && unit(splitmix64(base^0x04)) < corruptP {
		if corrupted, ok := CorruptMessage(req, splitmix64(base^0x05)); ok {
			fault.ReplaceReq = corrupted
		} else {
			fault.Drop = true // frame no longer decodes: the stream is lost
		}
	}
	return fault
}

var _ transport.LinkHook = (*Engine)(nil)

// CorruptMessage re-encodes msg with the binary wire codec, flips one bit
// chosen by r, and decodes the result. It returns (corrupted, true) when
// the mutated frame still decodes to a message, and (nil, false) when the
// mutation broke the frame (the caller should treat the call as lost) or
// the message is not a wire type the codec carries.
func CorruptMessage(msg any, r uint64) (any, bool) {
	buf, err := wire.AppendMessage(nil, msg)
	if err != nil || len(buf) == 0 {
		return nil, false
	}
	i := int(r % uint64(len(buf)))
	buf[i] ^= byte(1 << ((r >> 32) % 8))
	out, rest, err := wire.DecodeMessage(buf)
	if err != nil || len(rest) != 0 {
		return nil, false
	}
	return out, true
}
