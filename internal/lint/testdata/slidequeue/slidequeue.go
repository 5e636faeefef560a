// Package slidequeuetest seeds violations for the slidequeue analyzer.
package slidequeuetest

type fifo struct {
	items []int
	cur   []int
}

func (q *fifo) push(v int) { q.items = append(q.items, v) }

// pop consumes from the front of a field that push refills: flagged.
func (q *fifo) pop() int {
	v := q.items[0]
	q.items = q.items[1:] // want "field items is a slide-forward queue"
	return v
}

// dropN slides by a variable count: the same pattern.
func (q *fifo) dropN(n int) {
	q.items = (q.items[n:]) // want "field items is a slide-forward queue"
}

// truncate reuses the array from the start; it strands nothing.
func (q *fifo) truncate() { q.items = q.items[:0] }

// advance moves a cursor over data that is never appended to: not a
// queue, not flagged.
func (q *fifo) advance() { q.cur = q.cur[1:] }

// A generic queue: every method's receiver shares the field identity.
type ring[T any] struct{ buf []T }

func (r *ring[T]) push(v T) { r.buf = append(r.buf, v) }

func (r *ring[T]) pop() T {
	v := r.buf[0]
	r.buf = r.buf[1:] // want "field buf is a slide-forward queue"
	return v
}

// A justified exception is suppressed.
type journal struct{ entries []string }

func (j *journal) add(s string) { j.entries = append(j.entries, s) }

func (j *journal) trim() {
	j.entries = j.entries[1:] //meshvet:allow slidequeue bounded replay log, trimmed once per run
}

// Locals die with their frame: slicing one forward is not flagged.
func drain(in []int) int {
	q := append([]int(nil), in...)
	sum := 0
	for len(q) > 0 {
		sum += q[0]
		q = q[1:]
		q = append(q, 0)[:len(q)]
	}
	return sum
}
