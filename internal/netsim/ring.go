package netsim

// ring is a growable circular FIFO. Media use rings for their in-flight
// packets: arrival times on one link direction (or one LAN transmitter)
// are monotone — serialization ends before the next transmission starts —
// so arrivals pop in push order and the hoisted arrival callback needs no
// per-packet closure. Steady state allocates nothing; the buffer grows to
// the peak in-flight count and is reused.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	if r.n == 0 {
		panic("netsim: pop from empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop the reference for the garbage collector
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}
