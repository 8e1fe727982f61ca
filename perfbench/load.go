package main

import (
	"syscall"
	"time"
	"unsafe"
)

// loadStats is one client's record of a measured window.
type loadStats struct {
	// at holds when each call was due (open loop) or sent (closed loop),
	// in nanoseconds since the window began, and lat its latency in
	// nanoseconds (see openLoop for where an open-loop call is timed from).
	at, lat []int64
	// late holds the open-loop generator's send lateness: when each call
	// was sent minus when it was due.
	late []int64
	// failedAt holds the offsets of the calls that failed.
	failedAt  []int64
	attempted int
	failed    int
	// spans holds a traced run's Invoke spans until the window ends, and
	// loadSpan is the id of the client's load span, their parent.
	spans    []invokeSpan
	loadSpan uint64
}

// invokeSpan is a traced call: its start and end in nanoseconds since
// the run began, and its request id.
type invokeSpan struct {
	start, end int64
	trace      uint64
}

func newLoadStats(expected int, traced bool) *loadStats {
	st := &loadStats{at: offHeap[int64](expected), lat: offHeap[int64](expected)}
	if traced {
		st.spans = offHeap[invokeSpan](expected/2 + 1)
	}
	return st
}

// offHeap returns an empty slice with room for n values in anonymous
// memory outside the Go heap, so that the benchmark's records neither
// count in heap_peak_mb nor pace the garbage collector of the code under
// test. T must hold no pointers. The memory lives until the process exits.
// Appending beyond n moves the slice onto the heap.
func offHeap[T any](n int) []T {
	size := n * int(unsafe.Sizeof(*new(T)))
	if size <= 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, 0, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0]
}

// record files a call that was due at due and is timed from origin.
func (st *loadStats) record(start, due, origin time.Time, ok bool) {
	at := due.Sub(start).Nanoseconds()
	st.at = append(st.at, at)
	st.lat = append(st.lat, time.Since(origin).Nanoseconds())
	st.attempted++
	if !ok {
		st.failed++
		st.failedAt = append(st.failedAt, at)
	}
}

// closedLoop makes calls back to back from start until the deadline: the
// next call is sent only after the previous one returned, as a CORBA
// two-way caller does. call reports whether the invocation completed.
func closedLoop(start, until time.Time, st *loadStats, call func() bool) {
	for {
		sent := time.Now()
		if !sent.Before(until) {
			return
		}
		ok := call()
		st.record(start, sent, sent, ok)
	}
}

// openLoop makes one call per period from start until the deadline, each
// due at its scheduled time whatever happened to the previous one. A
// single caller cannot send a call before the previous one returned, so a
// stall delays the calls due during it; their latency is timed from when
// they were due, which charges the stall to every call it delayed, and
// the delay itself shows as send lateness. A call whose predecessor had
// returned before it was due is timed from when it was sent instead: its
// lateness is the generator's own timer slack (up to a millisecond), not a
// wait the system imposed.
func openLoop(start time.Time, period time.Duration, until time.Time, st *loadStats, call func() bool) {
	var idleSince time.Time // when the previous call returned
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(until) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		st.late = append(st.late, sent.Sub(due).Nanoseconds())
		ok := call()
		origin := due
		if idleSince.Before(due) {
			origin = sent
		}
		st.record(start, due, origin, ok)
		idleSince = time.Now()
	}
}
