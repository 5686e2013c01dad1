package routing

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"routesync/internal/netsim"
)

// FuzzRoutingDecode checks the distance-vector decoder on arbitrary
// bytes:
//
//   - PeekHeader, the agents' allocation-free receive path, accepts and
//     rejects exactly what Decode does, with the same router, flags and
//     entry count;
//   - an accepted frame applied in place by Table.ApplyCost changes a
//     table exactly as Decode's Message changes refTable;
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
		via := &fakeMedium{"lan"}
		tb, ref := NewTable(16), newRefTable(16)
		tb.SetLocal(0, 0)
		ref.SetLocal(0, 0)
		applyBoth(t, tb, ref, data, m, via, 1, 1, "ApplyCost")
		compareTables(t, tb, ref, fuzzDests, []netsim.Medium{via}, 1, "after ApplyCost")

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

// fuzzDests bounds the destinations (and senders) of FuzzRoutingTable
// programs, so that updates collide with installed routes often.
const fuzzDests = 20

// FuzzRoutingTable replays a program decoded from the fuzz bytes on a
// Table and on refTable, the map-based table it replaced, and requires
// after every op the same ApplyResult (flags, and lists in the same
// order, Installed resolved through Table.At), the same Expire lists,
// and the same table as compareTables reads it. The Table applies each
// update from its EncodeInto bytes, as agents do. refTable always walks
// in Expire, so it is the oracle for the walks Table skips. The first
// byte picks 1–4 media; after it one op is a byte whose value mod 8
// selects:
//
//	0        SetLocal: destination
//	1, 2, 3  ApplyCost: sender, medium, cost (1–4), order, count (0–15),
//	         then per entry a destination and a metric byte (255 reads
//	         as MaxUint32, anything else mod 24, so infinity 16 and
//	         metrics above it occur); an even order byte sorts the
//	         entries by destination, an odd one keeps them as given
//	4        advance time by a byte of seconds, then Expire with a
//	         timeout and a garbage-collection age of a byte each
//	5        Reset, as a crash does
//	6        SetHoldDown: a byte of seconds (0 disables)
//	7        advance time by a byte of quarter seconds
//
// Destinations and senders are a byte mod fuzzDests, so updates carry
// the sender itself and duplicate destinations. Missing argument bytes
// read as zero. The seed corpus lives in testdata/fuzz/FuzzRoutingTable;
// run it with
//
//	go test -run '^$' -fuzz FuzzRoutingTable -fuzztime 20s -fuzzminimizetime 100x ./internal/routing/
func FuzzRoutingTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		media := make([]netsim.Medium, 1+next()%4)
		for i := range media {
			media[i] = &fakeMedium{fmt.Sprint("m", i)}
		}
		tb, ref := NewTable(16), newRefTable(16)
		now := 0.0
		for step := 0; len(prog) > 0; step++ {
			var what string
			switch op := next() % 8; op {
			case 0:
				d := netsim.NodeID(next() % fuzzDests)
				what = fmt.Sprintf("SetLocal(%d)", d)
				tb.SetLocal(d, now)
				ref.SetLocal(d, now)
			case 4:
				now += float64(next())
				timeout, gc := float64(next()), float64(next())
				what = fmt.Sprintf("Expire(%v, %v, %v)", now, timeout, gc)
				gotU, gotD := tb.Expire(now, timeout, gc)
				wantU, wantD := ref.Expire(now, timeout, gc)
				if !slices.Equal(gotU, wantU) || !slices.Equal(gotD, wantD) {
					t.Fatalf("step %d %s = %v, %v; reference %v, %v", step, what, gotU, gotD, wantU, wantD)
				}
			case 5:
				what = "Reset"
				tb.Reset()
				ref.Reset()
			case 6:
				d := float64(next())
				what = fmt.Sprintf("SetHoldDown(%v)", d)
				tb.SetHoldDown(d)
				ref.SetHoldDown(d)
			case 7:
				now += float64(next()) / 4
				what = fmt.Sprintf("advance to %v", now)
			default:
				from := netsim.NodeID(next() % fuzzDests)
				m := next() % len(media)
				cost := uint32(1 + next()%4)
				sorted := next()%2 == 0
				entries := make([]Entry, next()%16)
				for i := range entries {
					entries[i].Dest = netsim.NodeID(next() % fuzzDests)
					if mb := next(); mb == 255 {
						entries[i].Metric = math.MaxUint32
					} else {
						entries[i].Metric = uint32(mb % 24)
					}
				}
				if sorted {
					slices.SortStableFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Dest, b.Dest) })
				}
				msg := Message{Router: from, Entries: entries}
				buf, err := EncodeInto(nil, msg)
				if err != nil {
					t.Fatal(err)
				}
				what = fmt.Sprintf("ApplyCost(from %d, medium %d, cost %d, %v) at %v", from, m, cost, entries, now)
				applyBoth(t, tb, ref, buf, msg, media[m], now, cost, fmt.Sprintf("step %d %s", step, what))
			}
			compareTables(t, tb, ref, fuzzDests, media, now, fmt.Sprintf("step %d %s", step, what))
		}
	})
}

// applyBoth applies the update to tb from its wire bytes buf and to ref
// from msg, the same update decoded, and fails t unless both report the
// same ApplyResult (Installed resolved through Table.At).
func applyBoth(t *testing.T, tb *Table, ref *refTable, buf []byte, msg Message, via netsim.Medium, now float64, cost uint32, where string) {
	t.Helper()
	got := tb.ApplyCost(buf, via, now, cost)
	want := ref.ApplyCost(msg, via, now, cost)
	if got.Changed != want.Changed || got.Worsened != want.Worsened ||
		len(got.Installed) != len(want.Installed) || !slices.Equal(got.Unreachable, want.Unreachable) {
		t.Fatalf("%s = %+v, reference %+v", where, got, want)
	}
	for i, at := range got.Installed {
		if d := tb.At(at).Dest; d != want.Installed[i] {
			t.Fatalf("%s: Installed[%d] = index %d, destination %d; reference %d", where, i, at, d, want.Installed[i])
		}
	}
}
