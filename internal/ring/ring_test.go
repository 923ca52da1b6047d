package ring

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

func TestLookupDeterministicAndInMembers(t *testing.T) {
	r, err := New([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		c := r.Lookup(key)
		if c < 0 || c > 3 {
			t.Fatalf("Lookup(%q) = %d outside members", key, c)
		}
		if c2 := r2.Lookup(key); c2 != c {
			t.Fatalf("rings built from the same members disagree on %q: %d vs %d", key, c, c2)
		}
	}
}

func TestBalance(t *testing.T) {
	const cells, keys = 4, 4000
	r, err := New([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cells)
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	for c, got := range counts {
		// With 64 vnodes/cell the arc lengths concentrate tightly; accept a
		// generous 2x band around the mean so the test pins gross imbalance
		// (e.g. a cell owning no arc at all), not hash luck.
		if got < keys/cells/2 || got > keys*2/cells {
			t.Fatalf("cell %d owns %d/%d keys; want within [%d, %d]", c, got, keys, keys/cells/2, keys*2/cells)
		}
	}
}

func TestRebalanceMovesOnlyDepartedArcs(t *testing.T) {
	const keys = 2000
	full, err := New([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	without2, err := New([]int{0, 1, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Lookup(key)
		after := without2.Lookup(key)
		if before != 2 && after != before {
			t.Fatalf("key %q moved from surviving cell %d to %d when cell 2 left", key, before, after)
		}
		if before == 2 {
			if after == 2 {
				t.Fatalf("key %q still routes to departed cell 2", key)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the departed cell; balance test should have caught this")
	}
}

func TestNewRejectsBadMembers(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Fatal("New(nil) should fail")
	}
	if _, err := New([]int{0, 0}, 0); err == nil {
		t.Fatal("duplicate members should fail")
	}
	if _, err := New([]int{-1}, 0); err == nil {
		t.Fatal("negative member should fail")
	}
	if _, err := New([]int{0}, -3); err == nil {
		t.Fatal("negative vnodes should fail")
	}
}

func TestViewEncodeDecodeRoundTrip(t *testing.T) {
	v := View{Version: 7, Members: []int{0, 1, 3}, Vnodes: 32}
	got, err := DecodeView(v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != v.Version || got.Vnodes != v.Vnodes || len(got.Members) != len(v.Members) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, v)
	}
	for i := range v.Members {
		if got.Members[i] != v.Members[i] {
			t.Fatalf("member %d: %d vs %d", i, got.Members[i], v.Members[i])
		}
	}
	if _, err := DecodeView(nil); err == nil {
		t.Fatal("DecodeView(nil) should fail")
	}
	if _, err := DecodeView(v.Encode()[:10]); err == nil {
		t.Fatal("truncated view should fail")
	}
	if _, err := DecodeView(append(v.Encode(), 0)); err == nil {
		t.Fatal("over-long view should fail")
	}
}

// TestDecodeViewRejectsOversizedRing: a forged 21-byte view claiming one
// member with 2³²−1 vnodes must be refused by the decoder, before anything
// is allocated for it, and by New.
func TestDecodeViewRejectsOversizedRing(t *testing.T) {
	b := View{Version: 1, Members: []int{0}}.Encode()
	binary.BigEndian.PutUint32(b[9:13], math.MaxUint32)
	if len(b) != 21 {
		t.Fatalf("forged view is %d bytes, want 21", len(b))
	}
	if v, err := DecodeView(b); err == nil {
		t.Fatalf("DecodeView accepted %d vnodes", v.Vnodes)
	}
	if _, err := New([]int{0, 1}, MaxPoints/2+1); err == nil {
		t.Fatal("New accepted a ring over MaxPoints")
	}
	if _, err := New([]int{0, 1}, MaxPoints/2); err != nil {
		t.Fatalf("New refused a ring of exactly MaxPoints: %v", err)
	}
}

// FuzzDecodeView: decoding arbitrary bytes must never panic or allocate
// past the ring ceiling; a decoded view must materialize its ring and
// re-encode to the exact input bytes.
func FuzzDecodeView(f *testing.F) {
	f.Add(View{Version: 7, Members: []int{0, 1, 3}, Vnodes: 32}.Encode())
	f.Add(View{Version: 1, Members: []int{0}}.Encode())
	f.Add(View{Version: 2, Members: []int{2, 2}, Vnodes: 4}.Encode())
	f.Add([]byte{viewMagic})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := DecodeView(b)
		if err != nil {
			return
		}
		if r, err := v.Ring(); err == nil && len(r.points) > MaxPoints {
			t.Fatalf("ring of %d points exceeds MaxPoints", len(r.points))
		}
		if enc := v.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", b, enc)
		}
	})
}
