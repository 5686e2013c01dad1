package routing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"routesync/internal/netsim"
	"routesync/internal/rng"
)

// Decode parses a wire message, validating magic, version, entry count
// (at most MaxEntries, the most EncodeInto writes) and length. Agents
// validate through PeekHeader and Table.ApplyCost reads the entries in
// place; Decode is the tests' and the fuzz targets' independent reference.
func Decode(buf []byte) (Message, error) {
	var m Message
	if len(buf) < headerLen {
		return m, ErrTruncated
	}
	if binary.BigEndian.Uint16(buf[0:]) != magic {
		return m, ErrBadMagic
	}
	if buf[2] != version {
		return m, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	m.Triggered = buf[3]&flagTriggered != 0
	m.Request = buf[3]&flagRequest != 0
	m.Router = netsim.NodeID(binary.BigEndian.Uint32(buf[4:]))
	count := int(binary.BigEndian.Uint16(buf[8:]))
	if count > MaxEntries {
		return m, fmt.Errorf("%w: %d", ErrTooMany, count)
	}
	if len(buf) < headerLen+entryLen*count {
		return m, ErrTruncated
	}
	m.Entries = make([]Entry, count)
	for i := range m.Entries {
		off := headerLen + entryLen*i
		m.Entries[i] = Entry{
			Dest:   netsim.NodeID(binary.BigEndian.Uint32(buf[off:])),
			Metric: binary.BigEndian.Uint32(buf[off+4:]),
		}
	}
	return m, nil
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Message{
		Router:    7,
		Triggered: true,
		Entries: []Entry{
			{Dest: 1, Metric: 0},
			{Dest: 2, Metric: 5},
			{Dest: 3, Metric: 16},
		},
	}
	buf, err := EncodeInto(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != headerLen+entryLen*3 {
		t.Fatalf("encoded %d bytes, want %d", len(buf), headerLen+entryLen*3)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Router != m.Router || got.Triggered != m.Triggered || len(got.Entries) != 3 {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range m.Entries {
		if got.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got.Entries[i], m.Entries[i])
		}
	}
}

func TestEncodeEmptyMessage(t *testing.T) {
	buf, err := EncodeInto(nil, Message{Router: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Router != 1 || got.Triggered || len(got.Entries) != 0 {
		t.Fatalf("empty message round trip = %+v", got)
	}
}

func TestEncodeTooManyEntries(t *testing.T) {
	m := Message{Entries: make([]Entry, MaxEntries+1)}
	if _, err := EncodeInto(nil, m); !errors.Is(err, ErrTooMany) {
		t.Fatalf("err = %v, want ErrTooMany", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, _ := EncodeInto(nil, Message{Router: 1, Entries: []Entry{{Dest: 2, Metric: 3}}})

	short := good[:5]
	if _, err := Decode(short); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated header: err = %v", err)
	}

	truncBody := good[:len(good)-1]
	if _, err := Decode(truncBody); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated body: err = %v", err)
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0xFF
	if _, err := Decode(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v", err)
	}

	badVer := append([]byte(nil), good...)
	badVer[2] = 9
	if _, err := Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: err = %v", err)
	}

	// A count EncodeInto would refuse is rejected even when the body is there.
	tooMany := make([]byte, headerLen+entryLen*(MaxEntries+1))
	copy(tooMany, good[:headerLen])
	binary.BigEndian.PutUint16(tooMany[8:], MaxEntries+1)
	if _, err := Decode(tooMany); !errors.Is(err, ErrTooMany) {
		t.Fatalf("too many entries: err = %v", err)
	}
}

// TestWireRoundTripProperty: arbitrary messages survive encode/decode.
func TestWireRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		m := Message{
			Router:    netsim.NodeID(r.Intn(1 << 20)),
			Triggered: r.Bernoulli(0.5),
		}
		n := r.Intn(100)
		for i := 0; i < n; i++ {
			m.Entries = append(m.Entries, Entry{
				Dest:   netsim.NodeID(r.Intn(1 << 20)),
				Metric: uint32(r.Intn(1 << 16)),
			})
		}
		buf, err := EncodeInto(nil, m)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		if got.Router != m.Router || got.Triggered != m.Triggered || len(got.Entries) != len(m.Entries) {
			return false
		}
		for i := range m.Entries {
			if got.Entries[i] != m.Entries[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		buf := make([]byte, r.Intn(200))
		for i := range buf {
			buf[i] = byte(r.Intn(256))
		}
		_, _ = Decode(buf) // must not panic
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{RIP(), IGRP(), DECnet(), EGP(), Hello()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	// Paper §3 periods
	if RIP().Period != 30 || IGRP().Period != 90 || DECnet().Period != 120 || EGP().Period != 180 {
		t.Fatal("profile periods disagree with the paper")
	}
	if RIP().Infinity != 16 {
		t.Fatal("RIP infinity must be 16")
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{Name: "p0", Period: 0, Infinity: 16, TimeoutFactor: 3, GCFactor: 6},
		{Name: "p1", Period: 30, Infinity: 1, TimeoutFactor: 3, GCFactor: 6},
		{Name: "p2", Period: 30, Infinity: 16, TimeoutFactor: 0, GCFactor: 6},
		{Name: "p3", Period: 30, Infinity: 16, TimeoutFactor: 6, GCFactor: 3},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("%s validated", p.Name)
		}
	}
}
