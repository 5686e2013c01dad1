// Package routing implements a family of periodic distance-vector routing
// protocols over the netsim substrate: full-table updates broadcast at
// (jittered) periodic intervals, triggered updates on topology change,
// split horizon, route timeout and garbage collection — the protocol
// machinery behind RIP, IGRP, DECnet DNA Phase IV, EGP and Hello, the
// protocols the paper's §3 Periodic Messages model abstracts.
//
// The agents exhibit the paper's coupling mechanism for real: a router
// resets its routing timer only after its CPU finishes preparing its own
// update and processing any updates that arrived meanwhile, so routers on
// a shared network can fall into lock-step exactly as §4 simulates.
package routing

import (
	"encoding/binary"
	"errors"
	"fmt"

	"routesync/internal/netsim"
)

// Wire format constants.
const (
	magic     = 0x5253 // "RS"
	version   = 1
	headerLen = 12
	entryLen  = 8
	// flagTriggered marks an update sent in immediate response to a
	// topology change rather than a timer expiration.
	flagTriggered = 1 << 0
	// flagRequest marks a table request (RFC 1058 §3.4.1): a router that
	// just started asks its neighbors for their tables instead of
	// waiting up to a full period.
	flagRequest = 1 << 1
)

// MaxEntries bounds the routes in one update message (fits a uint16 count
// with sane packet sizes); a larger table goes out as several messages
// (see Update).
const MaxEntries = 4096

// Entry is one advertised route.
type Entry struct {
	Dest   netsim.NodeID
	Metric uint32
}

// Message is a full-table routing update or a table request.
type Message struct {
	Router    netsim.NodeID // originating router
	Triggered bool
	// Request asks the receiver for its full table; Entries is empty.
	Request bool
	Entries []Entry
}

// Errors returned by PeekHeader and EncodeInto.
var (
	ErrTruncated  = errors.New("routing: truncated message")
	ErrBadMagic   = errors.New("routing: bad magic")
	ErrBadVersion = errors.New("routing: unsupported version")
	ErrTooMany    = errors.New("routing: too many entries")
)

// EncodeInto serializes the message big-endian into dst's backing array
// (grown as needed):
//
//	uint16 magic | uint8 version | uint8 flags | uint32 router |
//	uint16 count | uint16 reserved | count × (uint32 dest, uint32 metric)
//
// Agents encode only table requests this way, straight into the
// packet's payload; updates go from the table onto the wire through
// Table.NewUpdate. The returned slice aliases dst's array when it was
// large enough.
func EncodeInto(dst []byte, m Message) ([]byte, error) {
	if len(m.Entries) > MaxEntries {
		return nil, fmt.Errorf("%w: %d", ErrTooMany, len(m.Entries))
	}
	n := headerLen + entryLen*len(m.Entries)
	if cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}
	binary.BigEndian.PutUint16(dst[0:], magic)
	dst[2] = version
	dst[3] = 0
	if m.Triggered {
		dst[3] |= flagTriggered
	}
	if m.Request {
		dst[3] |= flagRequest
	}
	binary.BigEndian.PutUint32(dst[4:], uint32(m.Router))
	binary.BigEndian.PutUint16(dst[8:], uint16(len(m.Entries)))
	binary.BigEndian.PutUint16(dst[10:], 0) // reserved
	for i, e := range m.Entries {
		off := headerLen + entryLen*i
		binary.BigEndian.PutUint32(dst[off:], uint32(e.Dest))
		binary.BigEndian.PutUint32(dst[off+4:], e.Metric)
	}
	return dst, nil
}

// PeekHeader validates buf with exactly Decode's checks and returns the
// header fields without materializing the entry slice — the agents'
// allocation-free receive path, after which Table.ApplyCost reads the
// entries in place. count is the number of entries present.
func PeekHeader(buf []byte) (router netsim.NodeID, triggered, request bool, count int, err error) {
	if len(buf) < headerLen {
		return 0, false, false, 0, ErrTruncated
	}
	if binary.BigEndian.Uint16(buf[0:]) != magic {
		return 0, false, false, 0, ErrBadMagic
	}
	if buf[2] != version {
		return 0, false, false, 0, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	count = int(binary.BigEndian.Uint16(buf[8:]))
	if count > MaxEntries {
		return 0, false, false, 0, fmt.Errorf("%w: %d", ErrTooMany, count)
	}
	if len(buf) < headerLen+entryLen*count {
		return 0, false, false, 0, ErrTruncated
	}
	triggered = buf[3]&flagTriggered != 0
	request = buf[3]&flagRequest != 0
	router = netsim.NodeID(binary.BigEndian.Uint32(buf[4:]))
	return router, triggered, request, count, nil
}
