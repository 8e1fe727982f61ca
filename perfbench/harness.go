package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"eternal"
	"eternal/internal/core"
	"eternal/internal/giop"
	"eternal/internal/interceptor"
	"eternal/internal/obs"
	"eternal/internal/simnet"
)

const (
	groupName = "store"
	// invokeTimeout bounds every invocation, far below the System's 60 s
	// DefaultTimeout, so a wedged ring shows as failed calls and not as a
	// stalled run.
	invokeTimeout = 2 * time.Second
	// faultTimeout bounds each KillReplica and RecoverReplica call.
	faultTimeout = 10 * time.Second
	// rounds is how many systems a run sets up and measures in turn, each
	// for its share of the window; setup_s is the median of their set-up
	// times. Spreading the window over fresh systems averages out what
	// one system's ring happens to settle into.
	rounds = 6
	warmup = time.Second
	// quiesceTimeout bounds the wait for every replica to reach the same
	// state once the load stops.
	quiesceTimeout = 10 * time.Second
)

// replicaSet tracks the newest store instance each node's factory made,
// so the checks can read every live replica's state.
type replicaSet struct {
	mu     sync.Mutex
	byNode map[string]*store
}

func (r *replicaSet) set(node string, s *store) {
	r.mu.Lock()
	r.byNode[node] = s
	r.mu.Unlock()
}

func (r *replicaSet) get(node string) *store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byNode[node]
}

// bench is one run of one workload: the system under test, its clients
// and their reply models.
type bench struct {
	w    workload
	seed int64
	in   inputs
	tr   *tracer // nil when tracing is off

	sys     *eternal.System
	reps    *replicaSet
	clients []*eternal.Client
	refs    []*eternal.ObjectRef
	models  []*replyModel
	cursor  []int
	// violation is each client's first reply that contradicted its model.
	violation []error
}

func newBench(w workload, seed int64, tr *tracer) *bench {
	return &bench{w: w, seed: seed, in: makeInputs(w, seed), tr: tr}
}

// setup starts the system, deploys the group and attaches the clients,
// and returns once every client's first invocation was acknowledged.
func (b *bench) setup(parent uint64) error {
	nodes := b.w.nodes()
	err := b.tr.call("NewSystem", parent, func() (err error) {
		b.sys, err = eternal.NewSystem(eternal.SystemConfig{
			Nodes:          nodes,
			Network:        paperLAN(),
			Totem:          benchTotem(),
			ManagerTick:    5 * time.Millisecond,
			DefaultTimeout: 60 * time.Second,
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("NewSystem: %w", err)
	}
	b.reps = &replicaSet{byNode: make(map[string]*store)}
	for _, n := range nodes {
		b.sys.Node(n).RegisterFactory("Store", func(string) eternal.Replica {
			s := newStore(b.in.blob)
			b.reps.set(n, s)
			return s
		})
	}
	spec := eternal.GroupSpec{
		Name: groupName, TypeName: "Store", Nodes: nodes,
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: len(nodes), MinReplicas: 1},
	}
	if err := b.tr.call("CreateGroup", parent, func() error { return b.sys.CreateGroup(spec) }); err != nil {
		return fmt.Errorf("CreateGroup: %w", err)
	}
	nc := len(b.w.clients)
	b.clients, b.refs = nil, nil
	b.models, b.cursor, b.violation = make([]*replyModel, nc), make([]int, nc), make([]error, nc)
	for c, node := range b.w.clients {
		b.models[c] = newReplyModel(keysPerClient)
		err := b.tr.call("Client/Resolve", parent, func() error {
			cl, err := b.sys.Client(node, fmt.Sprintf("client%d", c))
			if err != nil {
				return err
			}
			b.clients = append(b.clients, cl)
			ref, err := cl.Resolve(groupName)
			b.refs = append(b.refs, ref)
			return err
		})
		if err != nil {
			return fmt.Errorf("client %d on %s: %w", c, node, err)
		}
	}
	for c := range b.refs {
		var ok bool
		_ = b.tr.call("Invoke", parent, func() error { ok = b.invoke(c); return nil })
		if !ok {
			return fmt.Errorf("client %d: first invocation failed: %v", c, b.violation[c])
		}
	}
	return nil
}

func (b *bench) teardown() {
	for _, cl := range b.clients {
		cl.Close()
	}
	if b.sys != nil {
		b.sys.Shutdown()
	}
	b.clients, b.refs, b.sys = nil, nil, nil
}

// invoke performs client c's next add and checks the reply against the
// client's model. It reports whether the call completed. A failed call
// leaves its key ambiguous in the model; a reply the model rejects is
// recorded as the client's violation.
func (b *bench) invoke(c int) bool {
	ops := b.in.ops[c]
	o := &ops[b.cursor[c]%len(ops)]
	b.cursor[c]++
	out, err := b.refs[c].InvokeTimeout("add", o.args, invokeTimeout)
	if err != nil {
		b.models[c].timedOut(o.key, o.payload)
		return false
	}
	if len(out) != 16 {
		b.noteViolation(c, fmt.Errorf("key %d: reply of %d bytes, want 16", o.key, len(out)))
		return true
	}
	got := keyRecord{count: binary.BigEndian.Uint64(out), digest: binary.BigEndian.Uint64(out[8:])}
	if err := b.models[c].check(o.key, o.payload, got); err != nil {
		b.noteViolation(c, err)
	}
	return true
}

func (b *bench) noteViolation(c int, err error) {
	if b.violation[c] == nil {
		b.violation[c] = fmt.Errorf("client %d: %w", c, err)
	}
}

// window is what one measured window produced.
type window struct {
	length     time.Duration // the requested window length
	elapsed    time.Duration
	load       []*loadStats
	recovery   recoveryStats
	before     snapshot
	after      snapshot
	mallocs    uint64
	numGC      uint32
	heap       []heapSample
	goroutines []float64
	// auditRows and auditBad count the system's audit epoch rows and
	// those that diverged or conflicted.
	auditRows, auditBad int
	// recoveryPhases holds the window's recovery phase durations in
	// milliseconds, by phase name.
	recoveryPhases map[string][]float64
	// traces are the program's own spans of the window's last calls,
	// merged across nodes (traced runs only).
	traces []obs.MergedTrace
}

type recoveryStats struct {
	kill, recover []time.Duration
	attempted     int
	failed        int
	err           error
}

// drive runs the workload's load, and its recovery loop, until the
// deadline.
func (b *bench) drive(start, until time.Time, parent uint64, rs *recoveryStats) []*loadStats {
	var wg sync.WaitGroup
	load := make([]*loadStats, len(b.w.clients))
	for c := range b.w.clients {
		st := newLoadStats(int(until.Sub(start).Seconds()*float64(b.w.sampleRate()))+1024, b.tr != nil)
		load[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.clientLoop(c, start, until, parent, st)
		}()
	}
	if b.w.recover {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.recoveryLoop(until, parent, rs)
		}()
	}
	wg.Wait()
	return load
}

// clientLoop runs client c's load. In a traced run every second call is
// traced, so the traced and untraced halves of the tracing-overhead
// comparison see the same conditions, stalls included.
func (b *bench) clientLoop(c int, start, until time.Time, parent uint64, st *loadStats) {
	st.loadSpan = b.tr.id()
	calls := 0
	call := func() bool {
		calls++
		if b.tr == nil || calls%2 == 1 {
			return b.invoke(c)
		}
		t0 := time.Now()
		ok := b.invoke(c)
		st.spans = append(st.spans, invokeSpan{
			start: t0.Sub(b.tr.epoch).Nanoseconds(), end: time.Since(b.tr.epoch).Nanoseconds(),
			trace: uint64(c+1)<<32 | uint64(b.cursor[c]),
		})
		return ok
	}
	if b.w.openRate > 0 {
		openLoop(start, time.Second/time.Duration(b.w.openRate), until, st, call)
	} else {
		closedLoop(start, until, st, call)
	}
	b.tr.add(b.tr.spanID(st.loadSpan, fmt.Sprintf("load client%d", c), parent, 0, start, time.Now()))
}

// fileInvokeSpans hands a window's Invoke spans to the tracer, once every
// window's memory figures have been read.
func (b *bench) fileInvokeSpans(load []*loadStats) {
	for _, st := range load {
		spans := make([]span, len(st.spans))
		for i, s := range st.spans {
			spans[i] = span{ID: b.tr.id(), Parent: st.loadSpan, Trace: s.trace, Name: "Invoke", Start: s.start, End: s.end}
		}
		b.tr.add(spans...)
	}
}

// recoveryLoop kills and recovers the last node's replica until the
// deadline, with a seeded gap between cycles. It always leaves the
// replica recovered, or stops at the first failed call.
func (b *bench) recoveryLoop(until time.Time, parent uint64, rs *recoveryStats) {
	node := b.sys.Node(b.w.nodes()[b.w.replicas-1])
	for i := 0; time.Now().Before(until); i++ {
		rs.attempted++
		t0 := time.Now()
		err := b.tr.call("KillReplica", parent, func() error { return node.KillReplica(groupName, faultTimeout) })
		t1 := time.Now()
		if err == nil {
			err = b.tr.call("RecoverReplica", parent, func() error { return node.RecoverReplica(groupName, faultTimeout) })
		}
		if err != nil {
			rs.failed++
			rs.err = fmt.Errorf("kill/recover cycle %d: %w", i, err)
			return
		}
		rs.kill = append(rs.kill, t1.Sub(t0))
		rs.recover = append(rs.recover, time.Since(t1))
		gap := b.in.gaps[i%len(b.in.gaps)]
		if left := time.Until(until); gap > left {
			gap = max(left, 0)
		}
		time.Sleep(gap)
	}
}

// measure warms the system up, then drives the workload for the window
// and records counters around it.
func (b *bench) measure(d time.Duration) (*window, error) {
	var warm recoveryStats
	now := time.Now()
	b.drive(now, now.Add(warmup), 0, &warm)
	if warm.err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	// Let every replica finish the warm-up's calls, so the window's
	// execution count holds only its own.
	if err := b.quiesce(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	w := &window{length: d}
	parent := b.tr.id()
	start := time.Now()
	w.before = b.snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	smp := startSampler(start, 20*time.Millisecond)
	w.load = b.drive(start, start.Add(d), parent, &w.recovery)
	w.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	if b.tr != nil {
		w.traces = b.mergedSpans()
	}
	w.heap, w.goroutines = smp.finish()
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.numGC = m1.NumGC - m0.NumGC
	b.tr.add(b.tr.spanID(parent, "window", 0, 0, start, time.Now()))
	err := b.quiesce()
	w.after = b.snapshot()
	w.auditRows, w.auditBad = b.auditRows()
	if b.w.recover {
		w.recoveryPhases = b.recoveryPhaseSamples(w)
	}
	return w, err
}

// liveStores returns the store of every node that hosts a replica.
func (b *bench) liveStores() map[string]*store {
	out := make(map[string]*store)
	for _, n := range b.w.nodes() {
		if node := b.sys.Node(n); node != nil && node.HostsReplica(groupName) {
			if s := b.reps.get(n); s != nil {
				out[n] = s
			}
		}
	}
	return out
}

// quiesce waits until every live replica's state is byte-equal.
func (b *bench) quiesce() error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		diff := b.stateMismatch()
		if diff == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica states still differ after %s: %s", quiesceTimeout, diff)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stateMismatch names two live replicas whose GetState differ, or returns
// "" when all agree.
func (b *bench) stateMismatch() string {
	var ref []byte
	var refNode string
	stores := b.liveStores()
	if len(stores) < b.w.replicas {
		return fmt.Sprintf("%d of %d replicas live", len(stores), b.w.replicas)
	}
	for _, n := range b.w.nodes() {
		st := stores[n].stateBytes()
		if ref == nil {
			ref, refNode = st, n
		} else if !bytes.Equal(st, ref) {
			return fmt.Sprintf("%s (%d B) != %s (%d B)", n, len(st), refNode, len(ref))
		}
	}
	return ""
}

// snapshot is every counter the program exposes that the metrics use,
// read at one instant.
type snapshot struct {
	stats        map[string]core.Stats
	prom         map[string]map[string]float64
	net          simnet.Stats
	giop         giop.Counters
	icpt         interceptor.Counters
	spansDropped uint64
}

func (b *bench) snapshot() snapshot {
	s := snapshot{
		stats: make(map[string]core.Stats),
		prom:  make(map[string]map[string]float64),
		net:   b.sys.Network().Stats(),
		giop:  giop.Snapshot(),
		icpt:  interceptor.Snapshot(),
	}
	for _, n := range b.w.nodes() {
		node := b.sys.Node(n)
		s.stats[n] = node.Stats()
		s.prom[n] = scrape(node)
		if sr := node.SpanRecorder(); sr != nil {
			s.spansDropped += sr.Dropped()
		}
	}
	return s
}

// scrape reads a node's metrics registry through its Prometheus text
// rendering and keeps the unlabelled samples.
func scrape(n *core.Node) map[string]float64 {
	var buf bytes.Buffer
	n.Metrics().WritePrometheus(&buf)
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.ContainsRune(f[0], '{') {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// promDelta sums a counter's growth between two snapshots over the given
// nodes (all nodes when none are named).
func promDelta(a, b snapshot, name string, nodes ...string) float64 {
	if len(nodes) == 0 {
		for n := range b.prom {
			nodes = append(nodes, n)
		}
	}
	var sum float64
	for _, n := range nodes {
		sum += b.prom[n][name] - a.prom[n][name]
	}
	return sum
}

// heapSample is the live heap, as the last collection measured it, at an
// offset into the window.
type heapSample struct {
	at    time.Duration
	bytes uint64
}

// sampler reads the live heap and the goroutine count periodically
// through runtime/metrics, which, unlike runtime.ReadMemStats, does not
// stop the world.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	heap       []heapSample
	goroutines []float64
}

func startSampler(start time.Time, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(samples)
			s.heap = append(s.heap, heapSample{time.Since(start), samples[0].Value.Uint64()})
			s.goroutines = append(s.goroutines, float64(samples[1].Value.Uint64()))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *sampler) finish() ([]heapSample, []float64) {
	close(s.stop)
	<-s.done
	return s.heap, s.goroutines
}

// checkCorrect runs the post-load checks: every reply matched its client's
// model, the replicas' final records agree with the models, the audit saw
// no divergence, and each invocation executed once per replica.
func (b *bench) checkCorrect(w *window) error {
	var errs []error
	for _, v := range b.violation {
		if v != nil {
			errs = append(errs, v)
		}
	}
	stores := b.liveStores()
	if s := stores[b.w.nodes()[0]]; s != nil {
		_, recs, err := decodeState(s.stateBytes())
		if err != nil {
			errs = append(errs, fmt.Errorf("decoding final state: %w", err))
		}
		for c, m := range b.models {
			for k := range keysPerClient {
				r, ok := recs[keyName(c, k)]
				if !ok {
					r = keyRecord{digest: digestBasis}
				}
				if !m.accepts(k, r) {
					errs = append(errs, fmt.Errorf("client %d key %d: final record count %d differs from the model's %d",
						c, k, r.count, m.keys[k].count))
				}
			}
		}
	}
	if w.auditBad > 0 {
		errs = append(errs, fmt.Errorf("audit: %d of %d epoch rows diverged or conflicted", w.auditBad, w.auditRows))
	}
	attempted, completed := invocations([]*window{w})
	executed := executedPerInv([]*window{w})
	reps := float64(b.w.replicas)
	switch {
	case attempted > completed:
		// A failed call may or may not have executed anywhere.
	case b.w.recover:
		// Calls made while the recovering replica was out of the group are
		// carried to it by state transfer, not executed there.
		if executed < reps-1 || executed > reps {
			errs = append(errs, fmt.Errorf("executed %.4f times per invocation, want between %d and %d", executed, b.w.replicas-1, b.w.replicas))
		}
	case executed != reps:
		errs = append(errs, fmt.Errorf("executed %.4f times per invocation, want %d", executed, b.w.replicas))
	}
	return errors.Join(errs...)
}
