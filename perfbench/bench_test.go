package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"eternal"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so percentile must sort
	}
	return out
}

func TestPercentile(t *testing.T) {
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	for _, tc := range []struct {
		n int
		q float64
	}{{999, 0.99}, {100, 0.99}, {19, 0.5}, {0, 0.5}} {
		if v, err := percentile(seq(tc.n), tc.q); err == nil {
			t.Errorf("p%g of %d samples = %v; want refusal (fewer than %d beyond)", tc.q*100, tc.n, v, minBeyond)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := midMean([]float64{1, 2, 3, 4, 100, 5, 6, 7}); m != 4.5 {
		t.Errorf("interquartile mean = %v, want 4.5", m)
	}
}

// TestOpenLoopTimesFromDue drives the open-loop generator against a fake
// target that stalls once: the calls due during the stall must be charged
// the stall, and the generator's lateness must show it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		period = time.Millisecond
		stall  = 60 * time.Millisecond
	)
	st := newLoadStats(0, false)
	calls := 0
	start := time.Now()
	openLoop(start, period, start.Add(1500*time.Millisecond), st, func() bool {
		calls++
		if calls == 200 {
			time.Sleep(stall)
		}
		return true
	})
	if st.attempted < 1400 || st.attempted != calls || st.failed != 0 {
		t.Fatalf("attempted %d, calls %d, failed %d; want ~1500 scheduled calls, none dropped", st.attempted, calls, st.failed)
	}
	delayed := 0
	for _, ns := range st.lat {
		if time.Duration(ns) > stall/2 {
			delayed++
		}
	}
	if delayed < 20 {
		t.Errorf("%d calls took over %s from their due time; the calls due during the %s stall should", delayed, stall/2, stall)
	}
	// Calls sent on time are timed from when they were sent, so the
	// generator's own timer slack does not count as latency.
	if p50, _ := percentile(durationsUs(st.lat), 0.5); p50 > 100 {
		t.Errorf("p50 of an instant target = %.0f µs; timer slack counted as latency", p50)
	}
	late, err := percentile(durationsUs(st.late), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if late < float64(stall/3/time.Microsecond) {
		t.Errorf("gen_late p99 = %.0f µs; want the stall to show (>= %v)", late, stall/3)
	}
}

// TestPerSlice checks that the sliced figures ignore a minority of
// disturbed sub-windows and drop the trailing partial one.
func TestPerSlice(t *testing.T) {
	st := newLoadStats(0, false)
	for k := range 5 {
		lat := int64(100 * time.Microsecond)
		if k == 2 {
			lat *= 50 // one disturbed sub-window
		}
		for i := range 1000 {
			st.at = append(st.at, int64(k)*int64(time.Second)+int64(i)*int64(time.Millisecond))
			st.lat = append(st.lat, lat+int64(i))
		}
	}
	st.at = append(st.at, int64(5*time.Second)) // past the window: dropped
	st.lat = append(st.lat, int64(time.Hour))
	st.failedAt = append(st.failedAt, int64(time.Second))
	w := &window{length: 5500 * time.Millisecond, load: []*loadStats{st}}
	lat, rate := perSlice([]*window{w}, time.Second)
	// Sub-window 0's last call started at 999 ms and took ~100 µs;
	// sub-window 1 lost one call to a failure.
	if len(lat) != 5 || rate[0] < 1000 || rate[0] > 1001 || rate[1] < 999 || rate[1] > 1000 {
		t.Fatalf("%d sub-windows, rates %v", len(lat), rate)
	}
	r := newReport()
	r.slicedPct("p99", lat, 0.99)
	if got := r.byName["p99"].Value; got < 100 || got > 102 || len(r.refused) != 0 {
		t.Errorf("median of sub-window p99s = %v µs (refused %v); want ~101, unmoved by the disturbed one", got, r.refused)
	}
}

func TestClosedLoopWaitsForEachCall(t *testing.T) {
	st := newLoadStats(0, false)
	inFlight := 0
	now := time.Now()
	closedLoop(now, now.Add(50*time.Millisecond), st, func() bool {
		inFlight++
		defer func() { inFlight-- }()
		if inFlight != 1 {
			t.Errorf("%d calls in flight", inFlight)
		}
		time.Sleep(time.Millisecond)
		return st.attempted%2 == 0
	})
	if st.attempted == 0 || st.failed != st.attempted/2 || len(st.lat) != st.attempted || len(st.failedAt) != st.failed {
		t.Errorf("attempted %d failed %d samples %d", st.attempted, st.failed, len(st.lat))
	}
}

// reply runs add(key, payload) on a store and decodes the reply as the
// clients do.
func reply(t *testing.T, s *store, key string, payload []byte) keyRecord {
	t.Helper()
	e := eternal.NewEncoder(eternal.BigEndian)
	e.WriteString(key)
	e.WriteOctetSeq(payload)
	out, err := s.Invoke("add", e.Bytes(), eternal.BigEndian)
	if err != nil || len(out) != 16 {
		t.Fatalf("add: %v (%d bytes)", err, len(out))
	}
	return keyRecord{binary.BigEndian.Uint64(out), binary.BigEndian.Uint64(out[8:])}
}

func TestReplyModel(t *testing.T) {
	s := newStore(make([]byte, 256))
	m := newReplyModel(2)
	p1, p2, p3 := []byte("first"), []byte("second"), []byte("third")

	r1 := reply(t, s, "k0", p1)
	if err := m.check(0, p1, r1); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	if err := m.check(0, p1, r1); err == nil {
		t.Error("duplicate reply accepted")
	}
	r2 := reply(t, s, "k0", p2)
	wrong := r2
	wrong.digest ^= 1
	if err := m.check(0, p2, wrong); err == nil {
		t.Error("reply with a wrong digest accepted")
	}
	if err := m.check(0, p2, keyRecord{r2.count + 1, r2.digest}); err == nil {
		t.Error("reply with a wrong count accepted")
	}
	if err := m.check(0, p2, r2); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}

	// A timed-out call may have executed or not; either next reply is
	// accepted, and the model resynchronises to it.
	m.timedOut(0, p3)
	_ = reply(t, s, "k0", p3) // the timed-out call did execute
	r4 := reply(t, s, "k0", p1)
	if err := m.check(0, p1, r4); err != nil {
		t.Fatalf("reply after an executed timed-out call rejected: %v", err)
	}
	m2 := newReplyModel(1)
	m2.timedOut(0, p3) // this one never executed
	if err := m2.check(0, p1, reply(t, newStore(nil), "k0", p1)); err != nil {
		t.Fatalf("reply after a lost timed-out call rejected: %v", err)
	}

	// The final state agrees with the model; a tampered record does not.
	_, recs, err := decodeState(s.stateBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !m.accepts(0, recs["k0"]) || m.accepts(0, r1) {
		t.Error("final-state check disagrees with the store")
	}
	if !m.accepts(1, keyRecord{digest: digestBasis}) {
		t.Error("untouched key not accepted as empty")
	}
}

func TestStoreStateRoundTrip(t *testing.T) {
	a := newStore([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123"))
	reply(t, a, "x", make([]byte, payloadBytes))
	reply(t, a, "y", []byte("payload"))
	st, _ := a.GetState()
	b := newStore(nil)
	if err := b.SetState(st); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.stateBytes(), b.stateBytes()) {
		t.Error("state differs after SetState(GetState())")
	}
	if reply(t, a, "x", []byte("z")) != reply(t, b, "x", []byte("z")) {
		t.Error("replicas diverge after state transfer")
	}
}

func TestInputsFollowSeed(t *testing.T) {
	w, err := findWorkload("recover-3way")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := makeInputs(w, 1), makeInputs(w, 1), makeInputs(w, 2)
	if !slices.Equal(a.blob, b.blob) || !slices.Equal(a.ops[0][7].args, b.ops[0][7].args) || !slices.Equal(a.gaps, b.gaps) {
		t.Error("same seed gave different inputs")
	}
	if slices.Equal(a.blob, c.blob) || slices.Equal(a.ops[0][7].args, c.ops[0][7].args) {
		t.Error("different seeds gave the same inputs")
	}
	for _, g := range a.gaps {
		if g < 200*time.Millisecond || g >= 400*time.Millisecond {
			t.Fatalf("gap %s outside [200ms, 400ms)", g)
		}
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name the benchmark can print, and
// that BENCHMARK.json names exactly the benchmark's metrics and a subset
// of its workloads with their recorded reasons.
func TestMetricNames(t *testing.T) {
	all := append(slices.Clone(endToEndNames), perLayerNames...)
	seen := make(map[string]bool)
	for _, n := range all {
		if !metricName.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or repeated", n)
		}
		seen[n] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		cw, err := findWorkload(w.Name)
		if err != nil || cw.why != w.Why || len(w.Why) > 200 {
			t.Errorf("BENCHMARK.json workload %q does not match the benchmark's (%v)", w.Name, err)
		}
	}
	check := func(list []struct{ Name, Unit string }, want []string) {
		var got []string
		for _, m := range list {
			got = append(got, m.Name)
			if !unitName.MatchString(m.Unit) {
				t.Errorf("unit %q of %s is malformed", m.Unit, m.Name)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json lists %v, the benchmark prints %v", got, want)
		}
	}
	check(spec.EndToEnd, endToEndNames)
	check(spec.PerLayer, perLayerNames)
}
