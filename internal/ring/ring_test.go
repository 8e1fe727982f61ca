package ring

import (
	"runtime"
	"testing"
	"time"
)

func TestFIFOOrder(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 100; i++ {
		b.Push(i)
	}
	if b.Len() != 100 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := b.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d, %v", i, v, ok)
		}
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("Pop on empty buffer succeeded")
	}
}

func TestWrapAround(t *testing.T) {
	var b Buffer[int]
	next, want := 0, 0
	// Interleave pushes and pops so head wraps many times at every size.
	for round := 0; round < 500; round++ {
		for i := 0; i < 3; i++ {
			b.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			v, ok := b.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: Pop = %d, %v; want %d", round, v, ok, want)
			}
			want++
		}
	}
	for b.Len() > 0 {
		v, ok := b.Pop()
		if !ok || v != want {
			t.Fatalf("drain: Pop = %d, %v; want %d", v, ok, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d items, pushed %d", want, next)
	}
}

func TestPeek(t *testing.T) {
	var b Buffer[string]
	if _, ok := b.Peek(); ok {
		t.Fatal("Peek on empty buffer succeeded")
	}
	b.Push("a")
	b.Push("b")
	if v, ok := b.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q, %v", v, ok)
	}
	if b.Len() != 2 {
		t.Fatalf("Peek consumed an element: Len = %d", b.Len())
	}
}

// TestAtIndexesAcrossWrap reads and updates elements in place by age,
// across the circular wrap.
func TestAtIndexesAcrossWrap(t *testing.T) {
	var b Buffer[int]
	for i := range 8 {
		b.Push(i)
	}
	for range 5 {
		b.Pop()
	}
	for i := 8; i < 12; i++ {
		b.Push(i) // wraps: the storage holds 8
	}
	for i := range b.Len() {
		if got := *b.At(i); got != 5+i {
			t.Fatalf("At(%d) = %d, want %d", i, got, 5+i)
		}
	}
	*b.At(0) = 50
	if v, _ := b.Pop(); v != 50 {
		t.Fatalf("update through At not visible: Pop = %d", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At past the end did not panic")
		}
	}()
	b.At(b.Len())
}

// TestPopReleasesElements verifies the reason the package exists: a
// popped element must not stay reachable through the backing array.
func TestPopReleasesElements(t *testing.T) {
	var b Buffer[*[]byte]
	collected := make(chan struct{})
	func() {
		big := new([]byte)
		*big = make([]byte, 1<<20)
		runtime.SetFinalizer(big, func(*[]byte) { close(collected) })
		b.Push(big)
	}()
	b.Push(nil) // keep the buffer non-empty so its array stays live
	if _, ok := b.Pop(); !ok {
		t.Fatal("Pop failed")
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(time.Millisecond):
		}
	}
	t.Fatal("popped element still reachable after GC (slot not zeroed)")
}
