package deque

import (
	"testing"
)

func contents(d *Deque[int]) []int {
	out := make([]int, d.Len())
	for i := range out {
		out[i] = *d.At(i)
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestZeroValueFIFO(t *testing.T) {
	var d Deque[int]
	if d.Len() != 0 {
		t.Fatalf("zero deque Len = %d", d.Len())
	}
	for i := 0; i < 100; i++ {
		d.PushBack(i)
	}
	for i := 0; i < 100; i++ {
		if got := *d.Front(); got != i {
			t.Fatalf("Front = %d, want %d", got, i)
		}
		if got := d.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("drained Len = %d", d.Len())
	}
}

func TestPushFrontOrder(t *testing.T) {
	var d Deque[int]
	d.PushBack(2)
	d.PushFront(1)
	d.PushFront(0)
	d.PushBack(3)
	if got := contents(&d); !equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("contents = %v", got)
	}
}

// A steady-state FIFO whose length never exceeds the ring reuses its
// slots: no allocation once the ring exists, however far head travels.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var d Deque[*int]
	x := new(int)
	for i := 0; i < 4; i++ {
		d.PushBack(x)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		d.PushBack(x)
		d.PopFront()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %v per op", allocs)
	}
}

func TestAtAcrossWraparoundAndGrowWhileWrapped(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 8; i++ {
		d.PushBack(i)
	}
	// Move head to the middle, then refill so the live range wraps.
	for i := 0; i < 4; i++ {
		d.PopFront()
	}
	for i := 8; i < 12; i++ {
		d.PushBack(i)
	}
	if d.head == 0 || len(d.buf) != 8 {
		t.Fatalf("setup did not wrap: head=%d cap=%d", d.head, len(d.buf))
	}
	want := []int{4, 5, 6, 7, 8, 9, 10, 11}
	if got := contents(&d); !equal(got, want) {
		t.Fatalf("wrapped contents = %v, want %v", got, want)
	}
	// Growing while wrapped must unwrap in order.
	d.PushBack(12)
	want = append(want, 12)
	if got := contents(&d); !equal(got, want) {
		t.Fatalf("after grow = %v, want %v", got, want)
	}
	if len(d.buf) != 16 {
		t.Fatalf("cap after grow = %d", len(d.buf))
	}
}

// Popped and removed slots are zeroed, so a deque of pooled pointers
// keeps nothing reachable that it no longer holds.
func TestPoppedSlotsZeroed(t *testing.T) {
	var d Deque[*int]
	for i := 0; i < 6; i++ {
		v := i
		d.PushBack(&v)
	}
	d.PopFront()
	d.Remove(3)
	d.Remove(0)
	live := map[int]bool{}
	for i := 0; i < d.Len(); i++ {
		live[d.slot(i)] = true
	}
	for i, p := range d.buf {
		if !live[i] && p != nil {
			t.Fatalf("slot %d still holds %d after pop/remove", i, *p)
		}
	}
}

func TestInsertRemoveKeepOrder(t *testing.T) {
	var d Deque[int]
	for _, v := range []int{10, 30, 50} {
		d.PushBack(v)
	}
	d.Insert(1, 20)
	d.Insert(3, 40)
	d.Insert(0, 0)
	d.Insert(d.Len(), 60)
	if got := contents(&d); !equal(got, []int{0, 10, 20, 30, 40, 50, 60}) {
		t.Fatalf("after inserts = %v", got)
	}
	if v := d.Remove(5); v != 50 {
		t.Fatalf("Remove(5) = %d", v)
	}
	if v := d.Remove(1); v != 10 {
		t.Fatalf("Remove(1) = %d", v)
	}
	if got := contents(&d); !equal(got, []int{0, 20, 30, 40, 60}) {
		t.Fatalf("after removes = %v", got)
	}
}

func TestResetReleasesStorage(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 100; i++ {
		d.PushBack(i)
	}
	d.Reset()
	if d.Len() != 0 || d.buf != nil {
		t.Fatalf("Reset kept Len=%d cap=%d", d.Len(), len(d.buf))
	}
	d.PushBack(7)
	if d.PopFront() != 7 {
		t.Fatal("deque unusable after Reset")
	}
}

func TestEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(d *Deque[int]){
		"PopFront": func(d *Deque[int]) { d.PopFront() },
		"Front":    func(d *Deque[int]) { d.Front() },
		"At":       func(d *Deque[int]) { d.At(0) },
		"Remove":   func(d *Deque[int]) { d.Remove(0) },
		"Insert":   func(d *Deque[int]) { d.Insert(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty deque did not panic", name)
				}
			}()
			var d Deque[int]
			fn(&d)
		}()
	}
}

// FuzzDeque drives the deque and a plain-slice model with the same
// operation stream and checks they agree after every step: pushes and
// pops at both ends, indexed insert and remove, reads across the wrap
// point, growth while wrapped, zeroed vacated slots and Reset.
func FuzzDeque(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 0x44, 0x85, 6, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var d Deque[*int]
		var model []int
		next := 0
		val := func() *int { next++; v := next; return &v }
		for step, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0:
				v := val()
				d.PushBack(v)
				model = append(model, *v)
			case 1:
				v := val()
				d.PushFront(v)
				model = append([]int{*v}, model...)
			case 2:
				if len(model) > 0 {
					if got := *d.PopFront(); got != model[0] {
						t.Fatalf("step %d: PopFront = %d, want %d", step, got, model[0])
					}
					model = model[1:]
				}
			case 3:
				if len(model) > 0 {
					i := arg % len(model)
					if got := *d.Remove(i); got != model[i] {
						t.Fatalf("step %d: Remove(%d) = %d, want %d", step, i, got, model[i])
					}
					model = append(model[:i:i], model[i+1:]...)
				}
			case 4:
				i := arg % (len(model) + 1)
				v := val()
				d.Insert(i, v)
				model = append(model[:i:i], append([]int{*v}, model[i:]...)...)
			case 5:
				if len(model) > 0 {
					i := arg % len(model)
					if got := **d.At(i); got != model[i] {
						t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, model[i])
					}
				}
			case 6:
				if arg%4 == 0 {
					d.Reset()
					model = nil
				}
			case 7:
				if len(model) > 0 {
					if got := **d.Front(); got != model[0] {
						t.Fatalf("step %d: Front = %d, want %d", step, got, model[0])
					}
				}
			}
			if d.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, want %d", step, d.Len(), len(model))
			}
			for i, v := range model {
				if got := **d.At(i); got != v {
					t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, v)
				}
			}
			if len(d.buf) > 0 && len(d.buf)&(len(d.buf)-1) != 0 {
				t.Fatalf("step %d: ring capacity %d is not a power of two", step, len(d.buf))
			}
			live := 0
			for _, p := range d.buf {
				if p != nil {
					live++
				}
			}
			if live != len(model) {
				t.Fatalf("step %d: %d non-nil slots for %d elements: a vacated slot was not zeroed", step, live, len(model))
			}
		}
	})
}
