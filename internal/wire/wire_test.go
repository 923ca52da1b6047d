package wire

import (
	"testing"

	"pqs/internal/ts"
)

// roundTrip encodes and decodes an envelope carrying payload through the
// binary codec.
func roundTrip(t *testing.T, payload any) any {
	t.Helper()
	b, err := AppendEnvelope(nil, Envelope{ID: 7, Payload: payload})
	if err != nil {
		t.Fatalf("encode %T: %v", payload, err)
	}
	out, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatalf("decode %T: %v", payload, err)
	}
	if out.ID != 7 {
		t.Fatalf("envelope id %d", out.ID)
	}
	return out.Payload
}

func TestEnvelopeRoundTripAllMessages(t *testing.T) {
	stamp := ts.Stamp{Counter: 42, Writer: 7}
	msgs := []any{
		ReadRequest{Key: "k"},
		ReadReply{Found: true, Value: []byte("v"), Stamp: stamp, Sig: []byte("s")},
		WriteRequest{Key: "k", Value: []byte("v"), Stamp: stamp, Sig: []byte("s")},
		WriteReply{Stored: true},
		GossipRequest{Entries: []Item{{Key: "k", Value: []byte("v"), Stamp: stamp}}},
		GossipReply{Entries: []Item{{Key: "k2", Value: []byte("w"), Stamp: stamp}}},
		PingRequest{},
		PingReply{ServerID: 3},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		switch orig := m.(type) {
		case ReadReply:
			rr, ok := got.(ReadReply)
			if !ok || !rr.Found || string(rr.Value) != "v" || rr.Stamp != stamp {
				t.Errorf("ReadReply round trip: %+v", got)
			}
		case WriteRequest:
			wr, ok := got.(WriteRequest)
			if !ok || wr.Key != orig.Key || wr.Stamp != stamp {
				t.Errorf("WriteRequest round trip: %+v", got)
			}
		case GossipRequest:
			gr, ok := got.(GossipRequest)
			if !ok || len(gr.Entries) != 1 || gr.Entries[0].Key != "k" {
				t.Errorf("GossipRequest round trip: %+v", got)
			}
		case PingReply:
			pr, ok := got.(PingReply)
			if !ok || pr.ServerID != 3 {
				t.Errorf("PingReply round trip: %+v", got)
			}
		default:
			if got == nil {
				t.Errorf("%T round trip returned nil", m)
			}
		}
	}
}

func TestReplyEnvelopeCarriesError(t *testing.T) {
	b, err := AppendReplyEnvelope(nil, ReplyEnvelope{ID: 9, Err: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeReplyEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 9 || out.Err != "boom" || out.Payload != nil {
		t.Errorf("round trip: %+v", out)
	}
}
