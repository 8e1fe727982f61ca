package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"eternal"
	"eternal/internal/core"
	"eternal/internal/obs"
)

// metric is one reported figure. N is its sample count for timings.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Metric names, by the table they are reported in. The end-to-end set is
// what a run without tracing prints; the per-layer set is what a traced
// run prints. failed_frac and recovery_ms_p50 are end-to-end figures but
// read 0 on some workloads, and heap_peak_mb has not been shown steady
// enough to carry a bound, so they travel with the per-layer set; every run
// prints them on its standard error table.
var (
	endToEndNames = []string{"setup_s", "inv_p50_us", "inv_p99_us", "inv_per_s", "allocs_per_inv"}
	perLayerNames = []string{
		"failed_frac", "recovery_ms_p50", "heap_peak_mb",
		"cdr.encode_ns", "cdr.decode_ns",
		"giop.req_roundtrip_ns", "giop.msgs_per_inv",
		"interceptor.pipe_rt_ns", "interceptor.rewrites_per_inv",
		"replication.env_encode_ns", "replication.env_decode_ns", "replication.useful_reply_frac",
		"totem.order_rt_us_p50", "totem.token_wait_us_p50", "totem.ordering_us_p50",
		"totem.frames_per_inv", "totem.retransmits_per_kinv", "totem.view_changes",
		"totem.fastpath_share", "totem.forwards_per_inv", "totem.hurries_per_inv", "totem.rotations_per_s",
		"simnet.frames_per_inv", "simnet.bytes_per_inv", "simnet.overrun_frac", "simnet.frames_lost",
		"core.marshal_us_p50", "core.enqueue_us_p50", "core.dispatch_us_p50", "core.execute_us_p50",
		"core.reply_delivery_us_p50", "core.executed_per_inv",
		"recovery.kill_ms_p50", "recovery.capture_ms_p50", "recovery.transfer_ms_p50",
		"recovery.apply_ms_p50", "recovery.replay_ms_p50", "recovery.chunks_per_recovery",
		"recovery.chunk_stalls_per_recovery", "recovery.retransmit_reqs_per_recovery",
		"recovery.chunks_rejected", "recovery.split_assemble_ms",
		"obs.audit_clean_frac", "obs.spans_dropped",
		"runtime.goroutines", "runtime.gc_per_kinv",
		"bench.gen_late_p99_us", "bench.trace_overhead_pct",
	}
)

// report collects a run's metrics by name and the percentiles it had to
// refuse.
type report struct {
	byName  map[string]metric
	refused []string
}

func newReport() *report { return &report{byName: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64, n int) {
	r.byName[name] = metric{Name: name, Value: v, Unit: unit, N: n}
}

// pct sets a percentile of samples, or records why it was refused (the
// metric then reads 0 with its sample count).
func (r *report) pct(name, unit string, samples []float64, q float64) {
	v, err := percentile(samples, q)
	if err != nil {
		r.refused = append(r.refused, fmt.Sprintf("%s: %v", name, err))
	}
	r.set(name, unit, v, len(samples))
}

// pick returns the named metrics in order.
func (r *report) pick(names []string) []metric {
	out := make([]metric, 0, len(names))
	for _, n := range names {
		if m, ok := r.byName[n]; ok {
			out = append(out, m)
		}
	}
	return out
}

func invocations(ws []*window) (attempted, completed int) {
	for _, w := range ws {
		for _, st := range w.load {
			attempted += st.attempted
			completed += st.attempted - st.failed
		}
	}
	return attempted, completed
}

// alternateLatencies returns the latencies in microseconds of every
// client's odd (traced) or even (untraced) calls.
func alternateLatencies(ws []*window, traced bool) []float64 {
	var out []float64
	for _, w := range ws {
		for _, st := range w.load {
			for i, ns := range st.lat {
				if (i%2 == 1) == traced {
					out = append(out, float64(ns)/float64(time.Microsecond))
				}
			}
		}
	}
	return out
}

// sliceLength is the length of the sub-windows a figure is taken over:
// 1 s, or for the open loop long enough to hold the given number of calls.
func sliceLength(wl workload, calls int) time.Duration {
	if wl.openRate > 0 {
		return max(time.Second, time.Duration(float64(calls)*float64(time.Second)/float64(wl.openRate)))
	}
	return time.Second
}

// perSlice splits each window into whole sub-windows and returns, for
// each, its latencies in microseconds and its rate: the calls that started
// in it and completed, over the time from its start until the last of its
// calls returned. The rate, p99 and heap figures are interquartile
// means over the sub-windows, so that a burst of
// interference from outside the benchmark that covers fewer than a
// quarter of them does not move the result.
func perSlice(ws []*window, slice time.Duration) (lat [][]float64, rate []float64) {
	for _, w := range ws {
		n := int(w.length / slice)
		l, completed, end := make([][]float64, n), make([]int, n), make([]int64, n)
		for _, st := range w.load {
			for i, at := range st.at {
				if k := int(time.Duration(at) / slice); k < n {
					l[k] = append(l[k], float64(st.lat[i])/float64(time.Microsecond))
					completed[k]++
					end[k] = max(end[k], at+st.lat[i]-int64(k)*int64(slice))
				}
			}
			for _, at := range st.failedAt {
				if k := int(time.Duration(at) / slice); k < n {
					completed[k]--
				}
			}
		}
		lat = append(lat, l...)
		for k := range n {
			rate = append(rate, ratio(float64(completed[k]), time.Duration(end[k]).Seconds()))
		}
	}
	return lat, rate
}

// heapPeaks returns the largest live heap sampled in each whole
// sub-window, in bytes.
func heapPeaks(ws []*window, slice time.Duration) []float64 {
	var out []float64
	for _, w := range ws {
		peaks := make([]float64, w.length/slice)
		for _, h := range w.heap {
			if k := int(h.at / slice); k < len(peaks) {
				peaks[k] = max(peaks[k], float64(h.bytes))
			}
		}
		out = append(out, peaks...)
	}
	return out
}

// slicedPct sets the interquartile mean over sub-windows of each
// sub-window's q-percentile, or records why one was refused.
func (r *report) slicedPct(name string, lat [][]float64, q float64) {
	if len(lat) == 0 {
		r.refused = append(r.refused, name+": the window is shorter than one sub-window")
	}
	per := make([]float64, 0, len(lat))
	n := 0
	for k, l := range lat {
		n += len(l)
		v, err := percentile(l, q)
		if err != nil {
			r.refused = append(r.refused, fmt.Sprintf("%s: sub-window %d: %v", name, k, err))
			r.set(name, "us", 0, n)
			return
		}
		per = append(per, v)
	}
	r.set(name, "us", midMean(per), n)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// sumStat sums one core.Stats field's growth over every node and window.
func sumStat(ws []*window, field func(core.Stats) uint64) float64 {
	var sum float64
	for _, w := range ws {
		for n, s := range w.after.stats {
			sum += float64(field(s) - field(w.before.stats[n]))
		}
	}
	return sum
}

// sumProm sums a registry counter's growth over the given nodes (all
// nodes when none are named) and every window.
func sumProm(ws []*window, name string, nodes ...string) float64 {
	var sum float64
	for _, w := range ws {
		sum += promDelta(w.before, w.after, name, nodes...)
	}
	return sum
}

// sumSnap sums the growth of a process- or medium-wide counter over every
// window.
func sumSnap(ws []*window, f func(snapshot) uint64) float64 {
	var sum float64
	for _, w := range ws {
		sum += float64(f(w.after) - f(w.before))
	}
	return sum
}

// endToEnd sets the figures a user of the system sees.
func (r *report) endToEnd(wl workload, ws []*window, setup []float64) {
	attempted, completed := invocations(ws)
	r.set("setup_s", "s", median(setup), len(setup))
	// The median pools every call. A mean over sub-window medians jumps
	// on recover-3way, where a sub-window in which state transfers cover
	// half the time has a median in milliseconds.
	lat, rates := perSlice(ws, sliceLength(wl, 0))
	r.pct("inv_p50_us", "us", slices.Concat(lat...), 0.50)
	r.set("inv_per_s", "1/s", midMean(rates), completed)
	// A sub-window's p99 needs 1000 calls; 1250 leaves a margin for calls
	// a stall pushed out of it.
	lat99, _ := perSlice(ws, sliceLength(wl, 1250))
	r.slicedPct("inv_p99_us", lat99, 0.99)
	var mallocs float64
	var recoveries []time.Duration
	var heapSamples, cycles, cyclesFailed int
	for _, w := range ws {
		mallocs += float64(w.mallocs)
		heapSamples += len(w.heap)
		recoveries = append(recoveries, w.recovery.recover...)
		cycles += w.recovery.attempted
		cyclesFailed += w.recovery.failed
	}
	r.set("allocs_per_inv", "count", ratio(mallocs, float64(completed)), completed)
	r.set("heap_peak_mb", "MB", midMean(heapPeaks(ws, time.Second))/(1<<20), heapSamples)
	failed := attempted - completed + cyclesFailed
	r.set("failed_frac", "frac", ratio(float64(failed), float64(attempted+cycles)), attempted+cycles)
	if len(recoveries) > 0 {
		r.pct("recovery_ms_p50", "ms", durationsMs(recoveries), 0.50)
	} else {
		r.set("recovery_ms_p50", "ms", 0, 0)
	}
}

// executedPerInv is how many replicas executed each completed invocation.
func executedPerInv(ws []*window) float64 {
	_, completed := invocations(ws)
	return ratio(sumStat(ws, func(s core.Stats) uint64 { return s.RequestsExecuted }), float64(completed))
}

// perLayer sets the per-layer figures from the counters around the
// windows, the program's span journal and flight recorder, and the ladder.
func (r *report) perLayer(b *bench, ws []*window, ladder map[string]float64) {
	_, completed := invocations(ws)
	inv := float64(completed)
	for name, v := range ladder {
		unit := "ns"
		switch {
		case strings.HasSuffix(name, "_us_p50"):
			unit = "us"
		case strings.HasSuffix(name, "_ms"):
			unit = "ms"
		}
		r.set(name, unit, v, 0)
	}
	if !b.w.recover {
		r.set("recovery.split_assemble_ms", "ms", 0, 0)
	}
	var elapsed time.Duration
	var numGC float64
	var goroutines []float64
	var auditRows, auditBad int
	var late []int64
	for _, w := range ws {
		elapsed += w.elapsed
		numGC += float64(w.numGC)
		goroutines = append(goroutines, w.goroutines...)
		auditRows += w.auditRows
		auditBad += w.auditBad
		for _, st := range w.load {
			late = append(late, st.late...)
		}
	}

	r.set("giop.msgs_per_inv", "count", ratio(sumSnap(ws, func(s snapshot) uint64 { return s.giop.MessagesRead }), inv), completed)
	rewrites := sumSnap(ws, func(s snapshot) uint64 { return s.icpt.RequestRewrites + s.icpt.ReplyRewrites })
	r.set("interceptor.rewrites_per_inv", "count", ratio(rewrites, inv), completed)
	delivered := sumStat(ws, func(s core.Stats) uint64 { return s.RepliesDelivered })
	dups := sumStat(ws, func(s core.Stats) uint64 { return s.DuplicateReplies })
	r.set("replication.useful_reply_frac", "frac", ratio(delivered, delivered+dups), int(delivered+dups))

	r.set("totem.frames_per_inv", "count", ratio(sumProm(ws, "eternal_totem_data_frames_total"), inv), completed)
	r.set("totem.retransmits_per_kinv", "count", ratio(1000*sumProm(ws, "eternal_totem_retransmits_total"), inv), completed)
	r.set("totem.view_changes", "count", sumProm(ws, "eternal_totem_view_changes_total"), 0)
	r.set("totem.fastpath_share", "frac", ratio(sumProm(ws, "eternal_totem_fastpath_chunks_total"), sumProm(ws, "eternal_totem_chunks_sent_total")), 0)
	r.set("totem.forwards_per_inv", "count", ratio(sumProm(ws, "eternal_totem_fastpath_forwards_total"), inv), completed)
	r.set("totem.hurries_per_inv", "count", ratio(sumProm(ws, "eternal_totem_hurries_sent_total"), inv), completed)
	r.set("totem.rotations_per_s", "1/s", sumProm(ws, "eternal_totem_token_rotations_total", "n1")/elapsed.Seconds(), 0)

	r.set("simnet.frames_per_inv", "count", ratio(sumSnap(ws, func(s snapshot) uint64 { return s.net.FramesSent }), inv), completed)
	r.set("simnet.bytes_per_inv", "B", ratio(sumSnap(ws, func(s snapshot) uint64 { return s.net.BytesOnWire }), inv), completed)
	r.set("simnet.overrun_frac", "frac", ratio(sumSnap(ws, func(s snapshot) uint64 { return s.net.FramesOverrun }),
		sumSnap(ws, func(s snapshot) uint64 { return s.net.FramesDelivered })), 0)
	r.set("simnet.frames_lost", "count", sumSnap(ws, func(s snapshot) uint64 { return s.net.FramesLost }), 0)

	r.set("core.executed_per_inv", "count", executedPerInv(ws), completed)
	r.spanPhases(ws)
	r.recoveryPhases(b, ws)

	r.set("obs.audit_clean_frac", "frac", ratio(float64(auditRows-auditBad), float64(auditRows)), auditRows)
	r.set("obs.spans_dropped", "count", sumSnap(ws, func(s snapshot) uint64 { return s.spansDropped }), 0)
	r.set("runtime.goroutines", "count", median(goroutines), len(goroutines))
	r.set("runtime.gc_per_kinv", "count", ratio(1000*numGC, inv), completed)

	if len(late) > 0 {
		r.pct("bench.gen_late_p99_us", "us", durationsUs(late), 0.99)
	} else {
		r.set("bench.gen_late_p99_us", "us", 0, 0)
	}
	untracedP50, err0 := percentile(alternateLatencies(ws, false), 0.5)
	tracedP50, err1 := percentile(alternateLatencies(ws, true), 0.5)
	if err0 != nil || err1 != nil {
		r.refused = append(r.refused, fmt.Sprintf("bench.trace_overhead_pct: %v", errors.Join(err0, err1)))
	}
	r.set("bench.trace_overhead_pct", "%", 100*(ratio(tracedP50, untracedP50)-1), 0)
}

// mergedSpans reads the program's own span journal on every node and
// merges it by trace id.
func (b *bench) mergedSpans() []obs.MergedTrace {
	feeds := make(map[string][]obs.Span)
	for _, n := range b.w.nodes() {
		feeds[n] = b.sys.Node(n).Spans(0, 0)
	}
	return eternal.MergeSpans(feeds)
}

// spanPhases takes the median of each critical-path segment over the
// windows' merged spans.
func (r *report) spanPhases(ws []*window) {
	var traces []obs.MergedTrace
	for _, w := range ws {
		traces = append(traces, w.traces...)
	}
	att := eternal.AttributePhases(traces)
	segment := map[string]string{
		"marshal": "core.marshal_us_p50", "enqueue": "core.enqueue_us_p50",
		"token-wait": "totem.token_wait_us_p50", "ordering": "totem.ordering_us_p50",
		"dispatch": "core.dispatch_us_p50", "execute": "core.execute_us_p50",
		"reply-delivery": "core.reply_delivery_us_p50",
	}
	for _, name := range segment {
		r.set(name, "us", 0, 0)
	}
	for _, ph := range att.Phases {
		name, ok := segment[ph.Phase]
		if !ok {
			continue
		}
		if ph.Count < 2*minBeyond {
			r.refused = append(r.refused, fmt.Sprintf("%s: median of %d spans", name, ph.Count))
			r.set(name, "us", 0, ph.Count)
			continue
		}
		r.set(name, "us", ph.P50Us, ph.Count)
	}
}

var recoveryPhaseNames = []string{"capture", "transfer", "apply", "replay"}

// recoveryPhases sets the recovery layer's figures: state-transfer
// counters per recovery, and the median of each recovery phase.
func (r *report) recoveryPhases(b *bench, ws []*window) {
	var kills []time.Duration
	var recs int
	byPhase := make(map[string][]float64)
	for _, w := range ws {
		kills = append(kills, w.recovery.kill...)
		recs += len(w.recovery.recover)
		for p, ms := range w.recoveryPhases {
			byPhase[p] = append(byPhase[p], ms...)
		}
	}
	perRec := func(f func(core.Stats) uint64) float64 { return ratio(sumStat(ws, f), float64(recs)) }
	r.set("recovery.chunks_per_recovery", "count", perRec(func(s core.Stats) uint64 { return s.StateChunksSent }), recs)
	r.set("recovery.chunk_stalls_per_recovery", "count", perRec(func(s core.Stats) uint64 { return s.StateChunkStalls }), recs)
	r.set("recovery.retransmit_reqs_per_recovery", "count", perRec(func(s core.Stats) uint64 { return s.StateRetransmitRequests }), recs)
	r.set("recovery.chunks_rejected", "count", sumStat(ws, func(s core.Stats) uint64 { return s.StateChunksRejected }), 0)
	if !b.w.recover {
		for _, p := range recoveryPhaseNames {
			r.set("recovery."+p+"_ms_p50", "ms", 0, 0)
		}
		r.set("recovery.kill_ms_p50", "ms", 0, 0)
		return
	}
	r.pct("recovery.kill_ms_p50", "ms", durationsMs(kills), 0.5)
	for _, p := range recoveryPhaseNames {
		r.pct("recovery."+p+"_ms_p50", "ms", byPhase[p], 0.5)
	}
}

// recoveryPhaseSamples reconstructs the window's recoveries from the
// merged flight recorder and returns each phase's durations in
// milliseconds.
func (b *bench) recoveryPhaseSamples(w *window) map[string][]float64 {
	feeds := make(map[string][]obs.Event)
	for _, n := range b.w.nodes() {
		feeds[n] = b.sys.Node(n).Events(0, 0)
	}
	target := b.w.nodes()[b.w.replicas-1]
	var reports []obs.RecoveryReport
	for _, rep := range eternal.MergeEvents(feeds).RecoveryReports() {
		if rep.Node == target && rep.PhaseDetail != "" {
			reports = append(reports, rep)
		}
	}
	// The window's recoveries are the last ones; earlier ones warmed up.
	if n := len(w.recovery.recover); len(reports) > n {
		reports = reports[len(reports)-n:]
	}
	byPhase := make(map[string][]float64)
	for _, rep := range reports {
		for _, field := range strings.Fields(rep.PhaseDetail) {
			k, v, ok := strings.Cut(field, "=")
			if d, err := time.ParseDuration(v); ok && err == nil {
				byPhase[k] = append(byPhase[k], float64(d)/float64(time.Millisecond))
			}
		}
	}
	return byPhase
}

// auditRows merges every node's audit journal and counts the epoch rows
// and those that diverged or conflicted.
func (b *bench) auditRows() (rows, bad int) {
	feeds := make(map[string][]obs.AuditObservation)
	for _, n := range b.w.nodes() {
		feeds[n] = b.sys.Node(n).Audits(0, 0)
	}
	for _, row := range eternal.MergeAudits(feeds) {
		rows++
		if row.Diverged || row.Conflicted {
			bad++
		}
	}
	return rows, bad
}
