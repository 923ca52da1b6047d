// Package wire defines the messages exchanged between clients and replica
// servers: the read and write RPCs of the paper's access protocols
// (Sections 3.1, 4 and 5.2) plus the push-pull messages of the diffusion
// mechanism (Section 1.1). Both transports carry these types. The TCP
// transport serializes them with the hand-rolled binary codec in codec.go.
//
// # Binary wire format
//
// The TCP transport frames every message as
//
//	frame     := uvarint(len(body)) body
//	body      := request | reply
//	request   := uvarint(ID) tag(1 byte) payload
//	reply     := uvarint(ID) string(Err) tag(1 byte) payload
//	string    := uvarint(len) bytes
//
// where uvarint is Go's encoding/binary unsigned varint. The one-byte tag
// selects the payload layout:
//
//	1 ReadRequest    key
//	2 ReadReply      found value stamp sig
//	3 WriteRequest   key value stamp sig
//	4 WriteReply     stored
//	5 GossipRequest  uvarint(count) item*
//	6 GossipReply    uvarint(count) item*
//	7 PingRequest    (empty)
//	8 PingReply      varint(serverID)
//	9 ErrKind        kind(1 byte)          (reply payload slot only)
//	10 Compressed    uvarint(rawLen) deflate(tag payload)
//	11 GossipDeltaRequest  uvarint(since) uvarint(count) item*
//	12 GossipDeltaReply    uvarint(upTo) uvarint(count) item*
//	item             key value stamp sig
//	stamp            uvarint(counter) uvarint(writer)
//
// Tag 9 carries no message: in an error reply's payload slot it holds one
// byte with the server's classification of its own error (ErrKind*).
// Unclassified error replies — and every reply from a server predating the
// extension — use tag 0 there instead, exactly the legacy layout, and
// decode with ErrKind zero (Unknown, retryable). A decoder predating tag 9
// that meets a classified reply fails the frame with ErrUnknownTag and
// closes the connection — the versioning rule's loud failure mode, never a
// silent desync.
//
// Tag 10 is the compressed-frame wrapper used by transport.CodecBinaryFlate
// (flate.go): it occupies the payload slot of a request or reply envelope,
// and its body is the DEFLATE stream of the tagged message (`tag payload`)
// that would have sat there uncompressed, prefixed by the decompressed
// length. The envelope prefix (uvarint ID, and the Err string on replies)
// stays uncompressed and byte-identical to the legacy layout. Frames below
// the compression threshold — or ones deflate cannot shrink — are emitted in
// the legacy uncompressed layout, so small traffic is byte-identical across
// the two codecs. A decoder predating tag 10 that meets a compressed frame
// fails loudly with ErrUnknownTag, per the versioning rule.
//
// found/stored are one byte (0/1); key is a string; value/sig are
// length-prefixed byte fields where a zero length decodes to nil (matching
// the gob reference round trip the codec tests compare against). Tag 0 is
// reserved: a reply whose payload slot holds tag 0 carries no payload (error
// replies).
//
// Versioning rule: tags are append-only and never reused. Message layouts
// are frozen once a tag ships — extending a message means minting a new tag
// (and keeping the old decoder alive for one release), never appending
// fields to an existing layout, because decoders reject frames with trailing
// bytes. Unknown tags fail the frame, closing the connection.
package wire

import "pqs/internal/ts"

// ReadRequest asks a server for its current copy of a key.
type ReadRequest struct {
	Key string
}

// ReadReply carries one server's value-timestamp pair (the paper's
// ⟨v_u, t_u⟩). Sig is empty in benign deployments and carries the writer's
// ed25519 signature when self-verifying data is in use.
type ReadReply struct {
	Found bool
	Value []byte
	Stamp ts.Stamp
	Sig   []byte
}

// WriteRequest installs a value-timestamp pair at a server.
type WriteRequest struct {
	Key   string
	Value []byte
	Stamp ts.Stamp
	Sig   []byte
}

// WriteReply acknowledges a write. Stored reports whether the server adopted
// the value (false when it already held a later timestamp for the key).
type WriteReply struct {
	Stored bool
}

// Item is one replicated entry as exchanged by the diffusion protocol.
type Item struct {
	Key   string
	Value []byte
	Stamp ts.Stamp
	Sig   []byte
}

// GossipRequest is a push-pull anti-entropy round: the initiator sends a
// sample of its entries and asks for anything the peer holds with a newer
// timestamp.
type GossipRequest struct {
	Entries []Item
}

// GossipReply returns the entries the peer holds that dominate what the
// initiator sent (or that the initiator did not mention).
type GossipReply struct {
	Entries []Item
}

// GossipDeltaRequest is a watermark-bounded anti-entropy round (the WAN
// replacement for GossipRequest's full-snapshot push). The initiator sends
// only the entries its store adopted since the last acknowledged exchange
// with this peer, plus Since — the high-watermark of the peer's own store
// sequence the initiator has already pulled — asking for everything newer.
// Watermark state lives entirely on the initiator; the handler is stateless.
type GossipDeltaRequest struct {
	// Since is the peer-store sequence number up to which the initiator
	// already holds the peer's entries. Zero requests a full pull (first
	// contact). A Since ahead of the peer's current sequence means the
	// peer lost state (restart); the peer answers with a full pull.
	Since uint64
	// Entries are the initiator's adopted entries the peer has not
	// acknowledged: a full snapshot on first contact, a delta afterwards.
	Entries []Item
}

// GossipDeltaReply answers a GossipDeltaRequest with the entries the peer
// adopted in (Since, UpTo] of its own store sequence. UpTo becomes the
// initiator's new pull watermark for this peer.
type GossipDeltaReply struct {
	// UpTo is the peer's store sequence as of this reply; Entries covers
	// (request.Since, UpTo]. An UpTo below the Since the initiator sent
	// signals the peer regressed (restarted) and Entries is a full pull.
	UpTo    uint64
	Entries []Item
}

// PingRequest probes server liveness.
type PingRequest struct{}

// PingReply answers a ping.
type PingReply struct {
	ServerID int
}

// Envelope frames a request on the TCP transport.
type Envelope struct {
	ID      uint64
	Payload any
}

// Error kinds carried on reply envelopes: the server's classification of
// its own error, so clients can tell failures worth retrying from failures
// no retry can fix without parsing error strings.
const (
	// ErrKindUnknown is the zero value: an error the server did not
	// positively classify (or a reply from a peer predating the kind
	// extension). Clients treat Unknown as retryable.
	ErrKindUnknown byte = 0
	// ErrKindTransient marks failures that may succeed on retry: handler
	// timeouts, shutdown races, overload shedding.
	ErrKindTransient byte = 1
	// ErrKindPermanent marks failures retrying cannot fix: codec
	// mismatches, unsupported payload types, malformed requests.
	ErrKindPermanent byte = 2
)

// PermanentError marks err as a positively-identified permanent failure:
// retrying the request — or re-sampling a quorum around it — cannot succeed
// (unsupported request type, malformed payload, codec mismatch). The TCP
// server carries the classification to clients as ErrKindPermanent; errors
// not so marked travel as Unknown (or Transient) and stay retryable.
func PermanentError(err error) error { return &permanentError{err} }

type permanentError struct{ err error }

func (e *permanentError) Error() string   { return e.err.Error() }
func (e *permanentError) Unwrap() error   { return e.err }
func (e *permanentError) Permanent() bool { return true }

// ReplyEnvelope frames a response on the TCP transport. Err is the
// server-side error text, empty on success; ErrKind classifies it
// (ErrKind*) and is meaningful only when Err is non-empty.
type ReplyEnvelope struct {
	ID      uint64
	Payload any
	Err     string
	ErrKind byte
}
