package pathvector

import (
	"encoding/binary"
	"testing"

	"routesync/internal/netsim"
)

// FuzzPathVectorDecode checks the decoder the agents' integrate path
// reads, on two readings of the same bytes:
//
//   - as a frame off the wire: if PeekHeader accepts it, a Cursor walks
//     exactly count entries and every accessor, PathAt included, stays
//     in bounds;
//   - as a recipe for a frame: the entries built from it by
//     AppendAdvertise/AppendWithdraw decode back to their inputs.
//
// The seed corpus lives in testdata/fuzz/FuzzPathVectorDecode. Run it
// with
//
//	go test -run '^$' -fuzz FuzzPathVectorDecode -fuzztime 20s ./internal/pathvector/
func FuzzPathVectorDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		walkFrame(t, data)
		roundTrip(t, data)
	})
}

// walkFrame decodes data as a received update would be.
func walkFrame(t *testing.T, data []byte) {
	router, count, err := PeekHeader(data)
	if err != nil {
		return
	}
	if got := netsim.NodeID(binary.BigEndian.Uint32(data[4:])); router != got {
		t.Fatalf("router %d, header says %d", router, got)
	}
	c := NewCursor(data)
	for i := 0; i < count; i++ {
		if !c.Next() {
			t.Fatalf("cursor stopped after %d of %d entries", i, count)
		}
		_, _ = c.Origin(), c.Withdraw()
		// A withdrawal may carry hops on the wire; read them all.
		for h := 0; h < c.PathLen(); h++ {
			_ = c.PathAt(h)
		}
	}
	if c.Next() {
		t.Fatalf("cursor yielded more than %d entries", count)
	}
}

// recipeEntry is one entry of a frame built from fuzz bytes.
type recipeEntry struct {
	origin   netsim.NodeID
	withdraw bool
	path     []netsim.NodeID // excluding the sender, which the encoder prepends
}

// roundTrip reads data as a recipe — a uint32 router, then entries of a
// flag byte, a uint32 origin and, for advertisements, a hop-count byte
// and that many uint32 hops — encodes it and decodes it back.
func roundTrip(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	router := netsim.NodeID(binary.BigEndian.Uint32(data))
	data = data[4:]
	var entries []recipeEntry
	for len(data) >= 5 && len(entries) < MaxEntries {
		e := recipeEntry{
			origin:   netsim.NodeID(binary.BigEndian.Uint32(data[1:])),
			withdraw: data[0]&1 != 0,
		}
		data = data[5:]
		if !e.withdraw && len(data) > 0 {
			hops := min(int(data[0]), MaxPathLen-1, (len(data)-1)/hopLen)
			data = data[1:]
			for h := 0; h < hops; h++ {
				e.path = append(e.path, netsim.NodeID(binary.BigEndian.Uint32(data)))
				data = data[hopLen:]
			}
		}
		entries = append(entries, e)
	}

	buf := AppendHeader(nil, router)
	for _, e := range entries {
		if e.withdraw {
			buf = AppendWithdraw(buf, e.origin)
			continue
		}
		var err error
		if buf, err = AppendAdvertise(buf, e.origin, router, e.path); err != nil {
			t.Fatalf("AppendAdvertise rejected a %d-hop path: %v", len(e.path), err)
		}
	}
	PatchCount(buf, len(entries))

	gotRouter, count, err := PeekHeader(buf)
	if err != nil || gotRouter != router || count != len(entries) {
		t.Fatalf("PeekHeader = (%d, %d, %v), want (%d, %d, nil)", gotRouter, count, err, router, len(entries))
	}
	c := NewCursor(buf)
	for i, e := range entries {
		if !c.Next() {
			t.Fatalf("cursor stopped at entry %d of %d", i, len(entries))
		}
		if c.Origin() != e.origin || c.Withdraw() != e.withdraw {
			t.Fatalf("entry %d: origin %d withdraw %v, want %d %v", i, c.Origin(), c.Withdraw(), e.origin, e.withdraw)
		}
		if e.withdraw {
			if c.PathLen() != 0 {
				t.Fatalf("entry %d: withdrawal carries %d hops", i, c.PathLen())
			}
			continue
		}
		if c.PathLen() != 1+len(e.path) || c.PathAt(0) != router {
			t.Fatalf("entry %d: %d hops from %d, want %d from %d", i, c.PathLen(), c.PathAt(0), 1+len(e.path), router)
		}
		for h, want := range e.path {
			if got := c.PathAt(1 + h); got != want {
				t.Fatalf("entry %d hop %d = %d, want %d", i, 1+h, got, want)
			}
		}
	}
	if c.Next() {
		t.Fatal("cursor overran the encoded entries")
	}
}
