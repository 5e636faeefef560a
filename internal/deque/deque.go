// Package deque is the simulator's one FIFO container: a growable ring
// buffer that every hot queue (qdiscs, transport send/receive state,
// worker pools, control-plane admission) shares.
//
// It replaces the slide-forward idiom `q = q[1:]` + `append`, which
// strands the consumed prefix of the backing array: once the slice
// reaches the end of its capacity, every refill reallocates and copies
// the live tail, so a steadily busy queue allocates forever. A ring
// reuses its slots and allocates only when the live length outgrows
// the capacity.
//
// Popped and removed slots are zeroed, so a deque of pooled pointers
// never keeps a recycled object reachable. The zero Deque is empty and
// ready to use.
package deque

// Deque is a double-ended queue backed by a power-of-two ring.
type Deque[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the front element in buf
	n    int // number of elements
}

// Len returns the number of elements.
func (d *Deque[T]) Len() int { return d.n }

// slot maps logical index i (0 = front) to its index in buf.
func (d *Deque[T]) slot(i int) int { return (d.head + i) & (len(d.buf) - 1) }

// grow doubles the ring, unwrapping the live elements to the start.
// It starts from one slot, as append does: most deques (a connection's
// pending bounds, say) rarely hold more than one or two elements, and
// thousands of them live at once.
func (d *Deque[T]) grow() {
	buf := make([]T, max(1, 2*len(d.buf)))
	if d.n > 0 {
		k := copy(buf, d.buf[d.head:])
		copy(buf[k:], d.buf[:d.head])
	}
	d.buf = buf
	d.head = 0
}

// PushBack appends v at the back.
func (d *Deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[d.slot(d.n)] = v
	d.n++
}

// PushFront inserts v at the front.
func (d *Deque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PopFront removes and returns the front element. It panics on an
// empty deque.
func (d *Deque[T]) PopFront() T {
	if d.n == 0 {
		panic("deque: PopFront on empty deque")
	}
	var zero T
	v := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}

// Front returns a pointer to the front element, valid until the next
// mutation. It panics on an empty deque.
func (d *Deque[T]) Front() *T { return d.At(0) }

// At returns a pointer to the i-th element from the front, valid until
// the next mutation. It panics when i is out of range.
func (d *Deque[T]) At(i int) *T {
	if i < 0 || i >= d.n {
		panic("deque: index out of range")
	}
	return &d.buf[d.slot(i)]
}

// Insert places v at logical index i (0 <= i <= Len), shifting the
// elements from i onward one step toward the back.
func (d *Deque[T]) Insert(i int, v T) {
	if i < 0 || i > d.n {
		panic("deque: index out of range")
	}
	d.PushBack(v)
	for j := d.n - 1; j > i; j-- {
		*d.At(j) = *d.At(j - 1)
	}
	*d.At(i) = v
}

// Remove deletes and returns the element at logical index i, keeping
// the order of the rest. It shifts whichever side of i is shorter.
func (d *Deque[T]) Remove(i int) T {
	v := *d.At(i)
	if i < d.n/2 {
		for j := i; j > 0; j-- {
			*d.At(j) = *d.At(j - 1)
		}
		d.PopFront()
		return v
	}
	for j := i; j < d.n-1; j++ {
		*d.At(j) = *d.At(j + 1)
	}
	var zero T
	*d.At(d.n - 1) = zero
	d.n--
	return v
}

// Reset empties the deque and releases its storage, so a queue that
// swelled once (a resync wave, a burst) does not pin its peak
// footprint afterwards.
func (d *Deque[T]) Reset() { *d = Deque[T]{} }
