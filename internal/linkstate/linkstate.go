// Package linkstate implements a small link-state routing protocol on the
// netsim substrate: periodic link-state advertisement (LSA) origination,
// sequence-numbered flooding, a link-state database, and shortest-path
// (hop count) route computation.
//
// The paper studies distance-vector protocols, but its §1 warning is
// protocol-agnostic: any periodic message source with processing-coupled
// timers can synchronize. Link-state protocols refresh their LSAs
// periodically (OSPF's LSRefreshTime is 30 minutes), and an
// implementation that re-arms the refresh timer only after the CPU
// finishes flooding work has exactly the paper's weak coupling. The
// ExtLinkState experiment shows the same phase transition on this
// protocol; the package otherwise stands on its own as a second,
// independent routing-protocol family for the simulator.
package linkstate

import (
	"encoding/binary"
	"errors"
	"fmt"

	"routesync/internal/netsim"
)

// Wire format constants.
const (
	magic     = 0x4C53 // "LS"
	version   = 1
	headerLen = 16
	neighLen  = 4
)

// MaxNeighbors bounds an LSA's adjacency list.
const MaxNeighbors = 1024

// LSA is one router's link-state advertisement: its identity, a
// monotonically increasing sequence number, and its adjacency list.
type LSA struct {
	Origin    netsim.NodeID
	Seq       uint32
	Neighbors []netsim.NodeID
}

// Errors returned by Decode and EncodeInto.
var (
	ErrTruncated  = errors.New("linkstate: truncated LSA")
	ErrBadMagic   = errors.New("linkstate: bad magic")
	ErrBadVersion = errors.New("linkstate: unsupported version")
	ErrTooMany    = errors.New("linkstate: too many neighbors")
	ErrReserved   = errors.New("linkstate: nonzero reserved field")
)

// EncodeInto serializes an LSA big-endian into dst's backing array
// (grown as needed):
//
//	uint16 magic | uint8 version | uint8 reserved | uint32 origin |
//	uint32 seq | uint16 count | uint16 reserved | count × uint32 neighbor
//
// Agents encode straight into each outgoing packet's payload, so
// steady-state LSA origination allocates nothing. The returned slice
// aliases dst's array when it was large enough.
func EncodeInto(dst []byte, l LSA) ([]byte, error) {
	if len(l.Neighbors) > MaxNeighbors {
		return nil, fmt.Errorf("%w: %d", ErrTooMany, len(l.Neighbors))
	}
	n := headerLen + neighLen*len(l.Neighbors)
	if cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}
	binary.BigEndian.PutUint16(dst[0:], magic)
	dst[2] = version
	dst[3] = 0 // reserved
	binary.BigEndian.PutUint32(dst[4:], uint32(l.Origin))
	binary.BigEndian.PutUint32(dst[8:], l.Seq)
	binary.BigEndian.PutUint16(dst[12:], uint16(len(l.Neighbors)))
	binary.BigEndian.PutUint16(dst[14:], 0) // reserved
	for i, nb := range l.Neighbors {
		binary.BigEndian.PutUint32(dst[headerLen+neighLen*i:], uint32(nb))
	}
	return dst, nil
}

// Decode parses a wire LSA, validating it as PeekHeader does.
func Decode(buf []byte) (LSA, error) {
	origin, seq, err := PeekHeader(buf)
	if err != nil {
		return LSA{}, err
	}
	l := LSA{Origin: origin, Seq: seq}
	l.Neighbors = make([]netsim.NodeID, binary.BigEndian.Uint16(buf[12:]))
	for i := range l.Neighbors {
		l.Neighbors[i] = netsim.NodeID(binary.BigEndian.Uint32(buf[headerLen+neighLen*i:]))
	}
	return l, nil
}

// PeekHeader validates a wire LSA — magic, version, zero reserved
// fields, a neighbor count EncodeInto would accept, and that the neighbor
// list is in bounds — and returns its origin and sequence number without
// allocating the neighbor list. An accepted LSA is exactly what EncodeInto
// would produce for it, trailing bytes aside. The flooding hot path uses
// it to recognize duplicates — the common case on a broadcast segment,
// where every LSA is heard once per neighbor — and defer the full Decode
// to the rare fresh-LSA path.
func PeekHeader(buf []byte) (origin netsim.NodeID, seq uint32, err error) {
	if len(buf) < headerLen {
		return 0, 0, ErrTruncated
	}
	if binary.BigEndian.Uint16(buf[0:]) != magic {
		return 0, 0, ErrBadMagic
	}
	if buf[2] != version {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	if buf[3] != 0 || binary.BigEndian.Uint16(buf[14:]) != 0 {
		return 0, 0, ErrReserved
	}
	count := int(binary.BigEndian.Uint16(buf[12:]))
	if count > MaxNeighbors {
		return 0, 0, fmt.Errorf("%w: %d", ErrTooMany, count)
	}
	if len(buf) < headerLen+neighLen*count {
		return 0, 0, ErrTruncated
	}
	return netsim.NodeID(binary.BigEndian.Uint32(buf[4:])), binary.BigEndian.Uint32(buf[8:]), nil
}

// WireNeighborsEqual reports whether the neighbor list encoded in buf
// (already validated by PeekHeader) equals want, without allocating. A
// refresh LSA that merely bumps the sequence number of unchanged content
// needs no shortest-path recomputation.
func WireNeighborsEqual(buf []byte, want []netsim.NodeID) bool {
	count := int(binary.BigEndian.Uint16(buf[12:]))
	if count != len(want) {
		return false
	}
	for i, nb := range want {
		if netsim.NodeID(binary.BigEndian.Uint32(buf[headerLen+neighLen*i:])) != nb {
			return false
		}
	}
	return true
}
