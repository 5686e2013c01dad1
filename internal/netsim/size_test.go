package netsim

import (
	"testing"
	"unsafe"
)

// TestMediumSizes guards the per-transmitter footprint. Every link
// carries two transmitters and every LAN member one, so a field that
// pushes one over a size class grows the heap of every large topology:
// a 104 B transmitter lands in the allocator's 112 B class. The CPU's
// work record is the element of every router's work ring: a PacketRef
// (16 B), a Medium (16 B), aux (8 B), and a 32-bit agent generation
// with the kind (8 B).
func TestMediumSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"link transmitter", unsafe.Sizeof(transmitter[*Packet]{}), 96},
		{"LAN transmitter", unsafe.Sizeof(transmitter[lanFrame]{}), 96},
		{"Link", unsafe.Sizeof(Link{}), 248},
		{"CPU work record", unsafe.Sizeof(Work{}), 48},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d B, over its %d B budget", c.name, c.got, c.want)
		}
	}
}
