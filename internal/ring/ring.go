// Package ring is the growable circular FIFO behind every queue on the
// simulator's packet and protocol hot path: link and LAN output queues
// and in-flight packets, and each router CPU's work queue (forward
// steps and the agent kernel's receives and preparations).
package ring

// Ring is a growable circular FIFO. Its capacity is a power of two,
// starting at 1 and doubling when a push finds it full, so it never
// exceeds twice the peak queue length: an unbroken backlog that never
// drains reuses the same array, and steady-state push/pop cycles never
// allocate. The zero value is an empty ring.
type Ring[T any] struct {
	buf []T
	// head and n are 32-bit so a Ring costs 32 B: with two of them, a
	// netsim link direction's and LAN member's transmitter stay at 96 B.
	head uint32
	n    uint32
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return int(r.n) }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&uint32(len(r.buf)-1)] = v
	r.n++
}

// grow doubles the buffer, unwrapping the queue to start at index 0.
func (r *Ring[T]) grow() {
	grown := make([]T, max(1, 2*len(r.buf)))
	k := copy(grown, r.buf[r.head:])
	copy(grown[k:], r.buf[:r.head])
	r.buf = grown
	r.head = 0
}

// Pop removes and returns the head; it panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("ring: pop from empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop the reference for the garbage collector
	r.head = (r.head + 1) & uint32(len(r.buf)-1)
	r.n--
	return v
}
