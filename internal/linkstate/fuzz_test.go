package linkstate

import (
	"bytes"
	"testing"
)

// FuzzLinkStateDecode checks the LSA decoder on arbitrary bytes:
//
//   - PeekHeader, the flooding path's allocation-free check, accepts and
//     rejects exactly what Decode does, with the same error, origin and
//     sequence number;
//   - an accepted LSA re-encodes through EncodeInto to the prefix of the
//     input that Decode consumed, and WireNeighborsEqual matches it
//     against its own neighbor list.
//
// The seed corpus lives in testdata/fuzz/FuzzLinkStateDecode. Run it with
//
//	go test -run '^$' -fuzz FuzzLinkStateDecode -fuzztime 20s -fuzzminimizetime 100x ./internal/linkstate/
func FuzzLinkStateDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		l, derr := Decode(data)
		origin, seq, perr := PeekHeader(data)
		if (derr == nil) != (perr == nil) || (derr != nil && derr.Error() != perr.Error()) {
			t.Fatalf("Decode err %v, PeekHeader err %v", derr, perr)
		}
		if derr != nil {
			return
		}
		if origin != l.Origin || seq != l.Seq {
			t.Fatalf("PeekHeader = (%d, %d), Decode = (%d, %d)", origin, seq, l.Origin, l.Seq)
		}
		buf, err := EncodeInto(nil, l)
		if err != nil {
			t.Fatalf("EncodeInto of a decoded LSA: %v", err)
		}
		if n := headerLen + neighLen*len(l.Neighbors); !bytes.Equal(buf, data[:n]) {
			t.Fatalf("re-encoded LSA\n%x\ndiffers from the consumed input\n%x", buf, data[:n])
		}
		if !WireNeighborsEqual(data, l.Neighbors) {
			t.Fatalf("WireNeighborsEqual rejects the decoded neighbors %v", l.Neighbors)
		}
	})
}
