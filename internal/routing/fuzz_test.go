package routing

import (
	"slices"
	"testing"
)

// FuzzRoutingDecode checks the distance-vector decoder on arbitrary
// bytes:
//
//   - PeekHeader, the agents' allocation-free receive path, accepts and
//     rejects exactly what Decode does, with the same router, flags and
//     entry count;
//   - on an accepted frame, AppendEntries yields Decode's entries;
//   - an accepted Message re-encodes to bytes that decode to the same
//     Message.
//
// The seed corpus lives in testdata/fuzz/FuzzRoutingDecode. Run it with
//
//	go test -run '^$' -fuzz FuzzRoutingDecode -fuzztime 20s -fuzzminimizetime 100x ./internal/routing/
func FuzzRoutingDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, derr := Decode(data)
		router, triggered, request, count, perr := PeekHeader(data)
		if (derr == nil) != (perr == nil) || (derr != nil && derr.Error() != perr.Error()) {
			t.Fatalf("Decode err %v, PeekHeader err %v", derr, perr)
		}
		if derr != nil {
			return
		}
		if router != m.Router || triggered != m.Triggered || request != m.Request || count != len(m.Entries) {
			t.Fatalf("PeekHeader = (%d, %v, %v, %d), Decode = (%d, %v, %v, %d)",
				router, triggered, request, count, m.Router, m.Triggered, m.Request, len(m.Entries))
		}
		if got := AppendEntries(nil, data); !slices.Equal(got, m.Entries) {
			t.Fatalf("AppendEntries = %v, Decode entries = %v", got, m.Entries)
		}

		buf, err := EncodeInto(nil, m)
		if err != nil {
			t.Fatalf("EncodeInto of a decoded message: %v", err)
		}
		back, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode of a re-encoded message: %v", err)
		}
		if back.Router != m.Router || back.Triggered != m.Triggered || back.Request != m.Request ||
			!slices.Equal(back.Entries, m.Entries) {
			t.Fatalf("re-encoded message decodes to %+v, want %+v", back, m)
		}
	})
}
