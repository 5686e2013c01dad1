// Package pathvector implements a BGP-like path-vector routing family
// over the netsim substrate and the shared protocol kernel: AS-path
// routes with loop detection, LOCAL_PREF/provider–customer (Gao–Rexford)
// export policies, per-peer MRAI batching timers driven by the jitter
// policies, and withdraw/path-exploration semantics.
//
// The family exists to replay the paper's result one layer up: the MRAI
// batching timer is itself a periodic timer, weakly coupled to its
// neighbors' timers through the updates it batches, so MRAI rounds
// across an internetwork can drift into lockstep exactly as RIP periods
// do in §4 — turning a steady trickle of updates into synchronized
// bursts ("Feasibility study on distributed simulations of BGP",
// Coudert et al., is the simulation-scale template).
//
// Modeling scale: one AS per node, and a bounded origin set — only
// designated origin ASes advertise a prefix (identified by the origin's
// node id), so RIB state is Θ(origins·degree) per AS rather than the
// Θ(N²) a full mesh of prefixes would cost at 10k ASes, mirroring how
// ext_netscale installs routes toward measured hosts only.
package pathvector

import (
	"encoding/binary"
	"errors"
	"fmt"

	"routesync/internal/netsim"
)

// Wire format constants.
const (
	magic      = 0x5056 // "PV"
	version    = 1
	headerLen  = 12
	entryFixed = 6 // origin uint32 | flags uint8 | pathLen uint8
	hopLen     = 4
	// entryWithdraw marks an entry that withdraws the origin's prefix
	// rather than advertising a path to it.
	entryWithdraw = 1 << 0
)

// MaxPathLen bounds the AS-path hops in one entry (fits the uint8
// length; internet AS paths are far shorter).
const MaxPathLen = 255

// MaxEntries bounds the entries in one update message.
const MaxEntries = 4096

// Errors returned by the decode paths.
var (
	ErrTruncated  = errors.New("pathvector: truncated message")
	ErrBadMagic   = errors.New("pathvector: bad magic")
	ErrBadVersion = errors.New("pathvector: unsupported version")
	ErrTooMany    = errors.New("pathvector: too many entries")
	ErrPathLong   = errors.New("pathvector: AS path too long")
)

// AppendHeader writes the 12-byte header of a message carrying count
// entries onto dst:
//
//	uint16 magic | uint8 version | uint8 flags(0) | uint32 router |
//	uint16 count | uint16 reserved
func AppendHeader(dst []byte, router netsim.NodeID, count int) []byte {
	var h [headerLen]byte
	binary.BigEndian.PutUint16(h[0:], magic)
	h[2] = version
	h[3] = 0
	binary.BigEndian.PutUint32(h[4:], uint32(router))
	binary.BigEndian.PutUint16(h[8:], uint16(count))
	binary.BigEndian.PutUint16(h[10:], 0) // reserved
	return append(dst, h[:]...)
}

// appendAdvertise appends one advertisement entry: the sender's AS
// (self) prepended to path, ending at the origin. The entry layout is
//
//	uint32 origin | uint8 flags | uint8 pathLen | pathLen × uint32 hop
//
// It takes either hop type, so agents encode straight from their uint32
// hop arena.
func appendAdvertise[H netsim.NodeID | uint32](dst []byte, origin, self netsim.NodeID, path []H) ([]byte, error) {
	if 1+len(path) > MaxPathLen {
		return dst, fmt.Errorf("%w: %d", ErrPathLong, 1+len(path))
	}
	var e [entryFixed + hopLen]byte
	binary.BigEndian.PutUint32(e[0:], uint32(origin))
	e[4] = 0
	e[5] = uint8(1 + len(path))
	binary.BigEndian.PutUint32(e[6:], uint32(self))
	dst = append(dst, e[:]...)
	var hop [hopLen]byte
	for _, h := range path {
		binary.BigEndian.PutUint32(hop[:], uint32(h))
		dst = append(dst, hop[:]...)
	}
	return dst, nil
}

// AppendWithdraw appends one withdrawal entry (no path).
func AppendWithdraw(dst []byte, origin netsim.NodeID) []byte {
	var e [entryFixed]byte
	binary.BigEndian.PutUint32(e[0:], uint32(origin))
	e[4] = entryWithdraw
	e[5] = 0
	return append(dst, e[:]...)
}

// PeekHeader validates buf — magic, version, and that every entry is
// in-bounds — and returns the sending router and entry count without
// materializing anything: the agents' allocation-free receive path.
func PeekHeader(buf []byte) (router netsim.NodeID, count int, err error) {
	if len(buf) < headerLen {
		return 0, 0, ErrTruncated
	}
	if binary.BigEndian.Uint16(buf[0:]) != magic {
		return 0, 0, ErrBadMagic
	}
	if buf[2] != version {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	count = int(binary.BigEndian.Uint16(buf[8:]))
	if count > MaxEntries {
		return 0, 0, fmt.Errorf("%w: %d", ErrTooMany, count)
	}
	off := headerLen
	for i := 0; i < count; i++ {
		if off+entryFixed > len(buf) {
			return 0, 0, ErrTruncated
		}
		off += entryFixed + hopLen*int(buf[off+5])
	}
	if off > len(buf) {
		return 0, 0, ErrTruncated
	}
	router = netsim.NodeID(binary.BigEndian.Uint32(buf[4:]))
	return router, count, nil
}

// Cursor iterates a validated message's entries in place — no slices
// are materialized, so the integrate path reads paths hop-by-hop
// straight from the packet payload. Use by value:
//
//	for c := NewCursor(buf); c.Next(); { ... }
type Cursor struct {
	buf       []byte
	remaining int
	off       int // start of the current entry
	next      int // start of the following entry
}

// NewCursor positions a cursor before the first entry of a message that
// has passed PeekHeader.
func NewCursor(buf []byte) Cursor {
	return Cursor{
		buf:       buf,
		remaining: int(binary.BigEndian.Uint16(buf[8:])),
		next:      headerLen,
	}
}

// Next advances to the next entry, reporting whether one exists.
func (c *Cursor) Next() bool {
	if c.remaining == 0 {
		return false
	}
	c.remaining--
	c.off = c.next
	c.next = c.off + entryFixed + hopLen*int(c.buf[c.off+5])
	return true
}

// Origin returns the current entry's prefix (the originating AS).
func (c *Cursor) Origin() netsim.NodeID {
	return netsim.NodeID(binary.BigEndian.Uint32(c.buf[c.off:]))
}

// Withdraw reports whether the current entry withdraws the prefix.
func (c *Cursor) Withdraw() bool { return c.buf[c.off+4]&entryWithdraw != 0 }

// PathLen returns the current entry's AS-path length (0 for withdrawals).
func (c *Cursor) PathLen() int { return int(c.buf[c.off+5]) }

// PathAt returns hop i of the current entry's AS path; hop 0 is the
// sending AS, the last hop is the origin.
func (c *Cursor) PathAt(i int) netsim.NodeID {
	return netsim.NodeID(binary.BigEndian.Uint32(c.buf[c.off+entryFixed+hopLen*i:]))
}
