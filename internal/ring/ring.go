// Package ring provides a growable circular FIFO buffer.
//
// It exists to replace the slice-shift idiom (q.items = q.items[1:])
// on the delivery hot paths: shifting a slice head keeps every popped
// element reachable through the backing array until the array itself
// turns over, which for queues of delivered payloads pins arbitrarily
// old message bodies in memory. Buffer zeroes each vacated slot on Pop,
// so popped elements become collectable immediately, and reuses its
// storage in a circle, so a steady-state queue allocates nothing.
//
// Buffer is not synchronized; callers that share one across goroutines
// hold their own lock (see internal/core's queue and internal/totem's
// pump).
package ring

// Buffer is a growable circular FIFO. The zero value is ready to use.
type Buffer[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of elements
}

// Len reports the number of buffered elements.
func (b *Buffer[T]) Len() int { return b.n }

// Push appends v at the tail, growing the storage if full.
func (b *Buffer[T]) Push(v T) {
	if b.n == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.n)%len(b.buf)] = v
	b.n++
}

// Pop removes and returns the oldest element, zeroing its slot so the
// buffer does not retain it. ok is false when the buffer is empty.
func (b *Buffer[T]) Pop() (v T, ok bool) {
	if b.n == 0 {
		return v, false
	}
	var zero T
	v = b.buf[b.head]
	b.buf[b.head] = zero
	b.head = (b.head + 1) % len(b.buf)
	b.n--
	return v, true
}

// Each calls f on every buffered element, oldest first, without removing
// any. f must not push or pop.
func (b *Buffer[T]) Each(f func(*T)) {
	for i := 0; i < b.n; i++ {
		f(&b.buf[(b.head+i)%len(b.buf)])
	}
}

// At returns a pointer to the i-th oldest element (0 is the oldest); i
// must be in [0, Len()). The pointer is valid until the next push or pop.
func (b *Buffer[T]) At(i int) *T {
	if i < 0 || i >= b.n {
		panic("ring: index out of range")
	}
	return &b.buf[(b.head+i)%len(b.buf)]
}

// Peek returns the oldest element without removing it.
func (b *Buffer[T]) Peek() (v T, ok bool) {
	if b.n == 0 {
		return v, false
	}
	return b.buf[b.head], true
}

// grow doubles the storage (starting at a small power of two) and
// linearizes the elements at the front of the new array.
func (b *Buffer[T]) grow() {
	size := len(b.buf) * 2
	if size == 0 {
		size = 8
	}
	next := make([]T, size)
	for i := 0; i < b.n; i++ {
		next[i] = b.buf[(b.head+i)%len(b.buf)]
	}
	b.buf = next
	b.head = 0
}
