// Package core implements the Eternal node: one processor's worth of the
// Eternal system (paper Figure 1). A Node owns a totem group-communication
// endpoint, the Replication Mechanisms (envelope routing, duplicate
// suppression, group metadata), the Recovery Mechanisms (state transfer,
// logging, enqueue-while-recovering), the socket-level Interceptor for
// locally attached clients, and the Replication/Resource Manager logic
// that maintains the configured numbers of replicas.
//
// Every node evaluates the same deterministic state machine over the same
// totally-ordered delivery stream, so group metadata, primary election,
// donor selection and recovery placement agree everywhere without extra
// rounds of coordination.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/faultdetect"
	"eternal/internal/ftcorba"
	"eternal/internal/interceptor"
	"eternal/internal/ior"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/replication"
	"eternal/internal/totem"
)

// GroupPort is the port number in the virtual endpoints of replicated
// object groups (the host is the group name; the Interceptor diverts it).
const GroupPort uint16 = 13570

// Errors returned by Node methods.
var (
	ErrNodeStopped = errors.New("core: node stopped")
	ErrTimedOut    = errors.New("core: timed out")
	ErrNoSuchGroup = errors.New("core: no such group")
	ErrNotAMember  = errors.New("core: node does not host a replica of the group")
)

// Config configures a Node.
type Config struct {
	// Transport is the node's group-communication endpoint.
	Transport totem.Transport
	// Totem tunes the multicast protocol; Transport inside it is ignored.
	Totem totem.Config
	// ReplyTimeout bounds how long a dispatcher waits for the local ORB's
	// reply to an injected request (default 5s).
	ReplyTimeout time.Duration
	// ManagerTick is the period of the resource-manager sweep and
	// checkpoint scheduler (default 20ms).
	ManagerTick time.Duration
	// SyncSelfDeclare is how long an unanswered KSyncRequest waits before
	// the node declares itself synchronized with an empty table — the
	// cold-start case where no node has state yet (default 750ms; slow
	// rings want it longer, tests shorter).
	SyncSelfDeclare time.Duration
	// StateChunkBytes bounds one state-transfer chunk's payload. Zero
	// selects recovery.DefaultChunkBytes (~32 KiB); negative disables
	// chunking entirely, reverting to the monolithic set_state.
	StateChunkBytes int
	// StateChunksPerToken caps how many state chunks the transfer
	// streamer multicasts per token rotation, so foreground traffic
	// interleaves with a large transfer (default 2).
	StateChunksPerToken int
	// Logger receives structured mechanism events (group lifecycle, state
	// transfers, faults). Nil disables logging.
	Logger *slog.Logger
	// Metrics receives the node's metrics (and the totem processor's). Nil
	// creates a private registry, retrievable via Node.Metrics(). Sharing a
	// registry between nodes of one process merges their totem metrics.
	Metrics *obs.Registry
	// TraceCapacity bounds the message-lifecycle tracer's ring buffer
	// (default obs.DefaultTraceCapacity).
	TraceCapacity int
	// EventCapacity bounds the flight recorder's ring buffer (default
	// obs.DefaultEventCapacity). Oldest events are dropped beyond it; the
	// drop count is exported as eternal_events_dropped_total.
	EventCapacity int
	// SpanCapacity bounds the causal span journal (default
	// obs.DefaultSpanCapacity). Negative disables span recording entirely:
	// every phase mark becomes a nil-receiver no-op, the configuration the
	// span-overhead benchmark compares against.
	SpanCapacity int
	// AuditInterval is the live consistency audit's period: each group's
	// primary multicasts a KAudit mark at this interval, every
	// instance-bearing member digests its state at the mark's agreed
	// position, and every node's collector matches the digests epoch by
	// epoch. Zero selects the 1s default; negative disables the audit
	// entirely — the configuration the audit-overhead benchmark compares
	// against.
	AuditInterval time.Duration
	// AuditCapacity bounds the audit collector's observation journal
	// (default obs.DefaultAuditCapacity).
	AuditCapacity int
	// AuditLagEpochs is how many completed audit epochs a member may miss
	// before the collector raises a lag alarm (default
	// obs.DefaultAuditLagEpochs).
	AuditLagEpochs int
}

// auditStallFactor sets the stall deadline as a multiple of the audit
// interval: an expected member silent for this many intervals past an
// epoch's mark — with peers reporting — is stalled.
const auditStallFactor = 8

// Node is one Eternal processor.
type Node struct {
	addr string
	cfg  Config
	proc *totem.Processor

	// factoriesMu guards factories (registered before/after start).
	factoriesMu sync.Mutex
	factories   map[string]ftcorba.Factory

	// Loop-owned state (only the delivery loop touches these).
	table         *replication.Table
	live          []string
	hosts         map[string]*replicaHost
	primaryOf     map[string]bool // group -> this node believes it is primary
	pendingAdd    map[string]bool // group -> KAddMember multicast, not yet delivered
	inXfers       map[uint64]*inboundXfer
	synced        bool
	syncRequested bool
	syncWaiting   bool // our KSyncRequest was delivered; buffer after it
	syncReqAt     time.Time
	syncBuf       []totem.Delivery

	// calls lets API goroutines run a closure on the loop for a
	// consistent read of loop-owned state.
	calls chan func()

	// groupsMu guards the read-mostly group view used by API goroutines
	// (dialers, IOR minting).
	groupsMu sync.RWMutex
	groupSet map[string]*replication.GroupSpec

	clientsMu sync.Mutex
	clients   map[string]*clientEntity

	waitersMu sync.Mutex
	waiters   map[string][]chan struct{}
	signaled  map[string]bool

	xferCounter atomic.Uint64

	// repliesMu guards the backup-reply bookkeeping (see multicastReply):
	// replyKeys holds the withdrawal key of every backup reply this node
	// has multicast and not yet seen delivered, answered the operations
	// whose reply was delivered before this node's replica produced its
	// own. Replicas' dispatch goroutines consume entries; the loop adds
	// answered ones and settles keys.
	repliesMu   sync.Mutex
	replyKeys   map[replyOp]uint64
	answered    map[replyOp]bool
	replyKeySeq uint64

	// Chunked state-transfer egress: captures enqueue outbound transfers
	// here and the single streaming goroutine paces them onto the ring
	// (FIFO, so each manifest follows its own chunks).
	xferQ *queue[outboundXfer]
	// xferCacheMu guards the donor-side retransmit cache.
	xferCacheMu    sync.Mutex
	xferCache      map[uint64]*cachedXfer
	xferCacheOrder []uint64
	// chunkHook is a test-only received-chunk filter (see setChunkHook).
	chunkHook atomic.Value

	// faults is the FaultNotifier: replica-level pull monitors publish
	// here, and the node reacts by removing the faulty replica.
	faults *faultdetect.Notifier

	// counters back the Stats surface.
	counters nodeCounters

	// Observability: the metrics registry, the message-lifecycle tracer,
	// the recovery timeline log (paper Figure 6, live), and the flight
	// recorder (sequence-stamped membership/recovery/fault events).
	metrics      *obs.Registry
	tracer       *obs.Tracer
	timelines    *obs.TimelineLog
	recorder     *obs.Recorder
	spans        *obs.SpanRecorder   // nil when SpanCapacity < 0
	audit        *obs.AuditCollector // nil when AuditInterval < 0
	traceCounter atomic.Uint64
	// auditDue schedules the next audit mark per group this node is
	// primary of (loop-owned, like the table it follows).
	auditDue map[string]time.Time
	// lastSeq is the sequence number of the most recent totem delivery,
	// the anchor stamped onto local flight-recorder events.
	lastSeq atomic.Uint64

	// Latency instruments, registered once at Start.
	invocationHist   *obs.Histogram
	recoveryCapture  *obs.Histogram
	recoveryTransfer *obs.Histogram
	recoveryApply    *obs.Histogram
	recoveryReplay   *obs.Histogram
	recoveryTotal    *obs.Histogram
	dispatchDepth    *obs.Gauge

	stopOnce sync.Once
	stopCh   chan struct{}
	loopDone chan struct{}

	// Failure-injection knobs for the paper's §4.2 experiments.
	disableORBStateTransfer atomic.Bool
}

// Start creates a node and joins the group-communication domain.
func Start(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("core: Config.Transport is required")
	}
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = 5 * time.Second
	}
	if cfg.ManagerTick <= 0 {
		cfg.ManagerTick = 20 * time.Millisecond
	}
	if cfg.SyncSelfDeclare <= 0 {
		cfg.SyncSelfDeclare = 750 * time.Millisecond
	}
	if cfg.StateChunksPerToken <= 0 {
		cfg.StateChunksPerToken = 2
	}
	if cfg.AuditInterval == 0 {
		cfg.AuditInterval = time.Second
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	recorder := obs.NewRecorder(cfg.EventCapacity, cfg.Transport.Addr())
	var spans *obs.SpanRecorder
	if cfg.SpanCapacity >= 0 {
		spans = obs.NewSpanRecorder(cfg.Transport.Addr(), cfg.SpanCapacity)
	}
	var audit *obs.AuditCollector
	if cfg.AuditInterval > 0 {
		audit = obs.NewAuditCollector(cfg.Transport.Addr(), cfg.AuditCapacity, cfg.AuditLagEpochs)
	}
	tc := cfg.Totem
	tc.Transport = cfg.Transport
	tc.Metrics = metrics
	tc.Recorder = recorder
	tc.Spans = spans
	proc, err := totem.Start(tc)
	if err != nil {
		return nil, err
	}
	n := &Node{
		addr:       cfg.Transport.Addr(),
		cfg:        cfg,
		proc:       proc,
		recorder:   recorder,
		factories:  make(map[string]ftcorba.Factory),
		table:      replication.NewTable(),
		hosts:      make(map[string]*replicaHost),
		primaryOf:  make(map[string]bool),
		pendingAdd: make(map[string]bool),
		inXfers:    make(map[uint64]*inboundXfer),
		xferQ:      newQueue[outboundXfer](),
		xferCache:  make(map[uint64]*cachedXfer),
		groupSet:   make(map[string]*replication.GroupSpec),
		clients:    make(map[string]*clientEntity),
		waiters:    make(map[string][]chan struct{}),
		signaled:   make(map[string]bool),
		calls:      make(chan func(), 16),
		faults:     faultdetect.NewNotifier(),
		metrics:    metrics,
		tracer:     obs.NewTracer(cfg.TraceCapacity),
		spans:      spans,
		audit:      audit,
		auditDue:   make(map[string]time.Time),
		timelines:  obs.NewTimelineLog(0),
		stopCh:     make(chan struct{}),
		loopDone:   make(chan struct{}),
	}
	recorder.SetSeqSource(n.lastSeq.Load)
	n.faults.AttachRecorder(recorder)
	n.counters = newNodeCounters(metrics)
	registerProcessMetrics(metrics)
	metrics.CounterFunc("eternal_events_recorded_total",
		"flight-recorder events recorded",
		func() float64 { return float64(recorder.Total()) })
	metrics.CounterFunc("eternal_events_dropped_total",
		"flight-recorder events evicted to bound the ring",
		func() float64 { return float64(recorder.Dropped()) })
	metrics.CounterFunc("eternal_spans_recorded_total",
		"invocation spans journalled",
		func() float64 { return float64(spans.Total()) })
	metrics.CounterFunc("eternal_spans_dropped_total",
		"journalled spans evicted to bound the span ring",
		func() float64 { return float64(spans.Dropped()) })
	metrics.CounterFunc("eternal_audit_observations_total",
		"consistency-audit digests collected (all members, via the total order)",
		func() float64 { return float64(audit.Total()) })
	metrics.CounterFunc("eternal_audit_observations_dropped_total",
		"audit observations evicted to bound the journal",
		func() float64 { return float64(audit.Dropped()) })
	metrics.GaugeFunc("eternal_audit_last_epoch",
		"most recent consistency-audit epoch observed",
		func() float64 { return float64(audit.LastEpoch()) })
	n.invocationHist = metrics.Histogram("eternal_invocation_seconds",
		"end-to-end invocation latency: interception to reply delivery", nil)
	n.recoveryCapture = metrics.Histogram("eternal_recovery_capture_seconds",
		"get_state() retrieval duration on the donor (recovery transfers only)", nil)
	n.recoveryTransfer = metrics.Histogram("eternal_recovery_transfer_seconds",
		"set_state bundle multicast transfer duration seen by the recovering node", nil)
	n.recoveryApply = metrics.Histogram("eternal_recovery_apply_seconds",
		"set_state() application duration on the recovering node", nil)
	n.recoveryReplay = metrics.Histogram("eternal_recovery_replay_seconds",
		"replay duration of messages enqueued while recovering", nil)
	n.recoveryTotal = metrics.Histogram("eternal_recovery_total_seconds",
		"synchronization point to reinstatement, the paper's Figure 6 measure", nil)
	n.dispatchDepth = metrics.Gauge("eternal_dispatch_queue_depth",
		"items queued across this node's replica dispatchers")
	go n.loop()
	go n.faultLoop()
	go n.xferStreamer()
	return n, nil
}

// faultLoop turns local fault-detector events into group-membership
// changes: a faulty replica is removed (in the total order), and the
// Resource Manager re-launches a replacement if the group drops below
// its minimum.
func (n *Node) faultLoop() {
	sub := n.faults.Subscribe()
	for {
		select {
		case <-n.stopCh:
			return
		case f := <-sub:
			n.multicast(&replication.Envelope{
				Kind:  replication.KRemoveMember,
				Group: f.Group,
				Node:  f.Node,
			})
		}
	}
}

// Faults exposes the node's fault notifier for observers (dashboards,
// tests).
func (n *Node) Faults() *faultdetect.Notifier { return n.faults }

// Addr returns the node's address.
func (n *Node) Addr() string { return n.addr }

// Stop shuts the node down: its replicas die with it, and the other nodes
// observe the silence as a processor failure.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopCh)
		n.xferQ.close()
		n.proc.Stop()
	})
	<-n.loopDone
}

// RegisterFactory installs the replica factory for an object type. Every
// node that may host a replica of that type must register it (the
// FT-CORBA GenericFactory deployed alongside the application).
func (n *Node) RegisterFactory(typeName string, f ftcorba.Factory) {
	n.factoriesMu.Lock()
	defer n.factoriesMu.Unlock()
	n.factories[typeName] = f
}

func (n *Node) factory(typeName string) (ftcorba.Factory, bool) {
	n.factoriesMu.Lock()
	defer n.factoriesMu.Unlock()
	f, ok := n.factories[typeName]
	return f, ok
}

func (n *Node) replyTimeout() time.Duration { return n.cfg.ReplyTimeout }

// SetORBStateTransfer toggles the transfer of ORB/POA-level state during
// recovery. Disabling it reproduces the paper's Figure 4 and §4.2.2
// failure modes (experiments E4/E5); it is on by default.
func (n *Node) SetORBStateTransfer(enabled bool) {
	n.disableORBStateTransfer.Store(!enabled)
}

// --- group metadata for API goroutines ---

func (n *Node) isGroup(name string) bool {
	n.groupsMu.RLock()
	defer n.groupsMu.RUnlock()
	_, ok := n.groupSet[name]
	return ok
}

func (n *Node) groupTypeName(name string) string {
	n.groupsMu.RLock()
	defer n.groupsMu.RUnlock()
	if s, ok := n.groupSet[name]; ok {
		return s.TypeName
	}
	return ""
}

// GroupIOR mints the Interoperable Object Group Reference for a group:
// one virtual IIOP profile per configured member, each carrying the
// TAG_FT_GROUP component (FT-CORBA IOGR).
func (n *Node) GroupIOR(name string) (*ior.IOR, error) {
	n.groupsMu.RLock()
	spec, ok := n.groupSet[name]
	n.groupsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
	}
	group := &ior.FTGroupInfo{FTDomainID: "eternal-go", GroupID: hashName(name), GroupVersion: 1}
	members := make([]ior.Member, 0, len(spec.Nodes))
	for i, node := range spec.Nodes {
		_ = node
		members = append(members, ior.Member{
			Host:      name, // virtual endpoint: the Interceptor routes by group name
			Port:      GroupPort,
			ObjectKey: []byte("root/" + name),
			Primary:   i == 0 && spec.Props.Style != ftcorba.Active,
		})
	}
	return ior.NewIOGR("IDL:eternal/"+spec.TypeName+":1.0", group, members), nil
}

// nextXfer generates a transfer id unique across the domain: the high
// half identifies the initiating node, the low half counts locally. Every
// capture marker (KAddMember, KCheckpoint) and its KSetState share one id
// space, so passive backups can pair markers with the checkpoints they
// produce.
func (n *Node) nextXfer() uint64 {
	return hashName(n.addr)<<32 | (n.xferCounter.Add(1) & 0xFFFFFFFF)
}

// nextTrace generates a trace id unique across the domain (same scheme as
// nextXfer); it is stamped into an invocation's envelope at interception
// and carried by every hop including the reply.
func (n *Node) nextTrace() uint64 {
	return hashName(n.addr)<<32 | (n.traceCounter.Add(1) & 0xFFFFFFFF)
}

// recordRecovery files one completed recovery of a local replica: the
// per-phase timeline (capture is donor-measured and shipped in the
// bundle; transfer is the recovering node's wait minus capture), the
// recovery histograms, and a phase-boundary log event.
func (n *Node) recordRecovery(group string, xferID uint64, start time.Time, capture, transfer, apply, replay time.Duration, enqueued int) {
	end := time.Now()
	n.timelines.Add(obs.RecoveryTimeline{
		Group:  group,
		Node:   n.addr,
		XferID: xferID,
		Start:  start,
		End:    end,
		Phases: []obs.Phase{
			{Name: obs.PhaseCapture, Duration: capture},
			{Name: obs.PhaseTransfer, Duration: transfer},
			{Name: obs.PhaseApply, Duration: apply},
			{Name: obs.PhaseReplay, Duration: replay},
		},
		Enqueued: enqueued,
	})
	n.recoveryTransfer.ObserveDuration(transfer)
	n.recoveryApply.ObserveDuration(apply)
	n.recoveryReplay.ObserveDuration(replay)
	n.recoveryTotal.ObserveDuration(end.Sub(start))
	n.recorder.Record(obs.Event{
		Type: obs.EventRecovered, Group: group, Node: n.addr, XferID: xferID,
		Value: int64(enqueued),
		Detail: fmt.Sprintf("capture=%s transfer=%s apply=%s replay=%s total=%s",
			capture, transfer, apply, replay, end.Sub(start)),
	})
	n.logger().Info("replica recovered", "group", group, "xfer", xferID,
		"capture", capture, "transfer", transfer, "apply", apply,
		"replay", replay, "enqueued", enqueued, "total", end.Sub(start))
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// --- client attachment ---

// entityDialer is the orb.Dialer handed to locally attached client ORBs:
// connections to replicated groups are diverted into the client entity's
// egress proxies; anything else falls through to TCP.
type entityDialer struct {
	node   *Node
	entity *clientEntity
}

func (d *entityDialer) Dial(host string, port uint16) (net.Conn, error) {
	if d.node.isGroup(host) {
		orbEnd, mechEnd := interceptor.Pipe()
		d.entity.accept(host, mechEnd)
		return orbEnd, nil
	}
	return orb.TCPDialer{}.Dial(host, port)
}

// ClientORB returns an ORB whose connections are intercepted by this
// node's mechanisms on behalf of the named client entity. Replicas of a
// replicated client use their group name as the entity name on every
// node, which is how their duplicate invocations are paired up.
func (n *Node) ClientORB(entityName string, opts orb.Options) *orb.ORB {
	ce := n.clientEntity(entityName)
	opts.Dialer = &entityDialer{node: n, entity: ce}
	return orb.NewORB(opts)
}

func (n *Node) clientEntity(name string) *clientEntity {
	n.clientsMu.Lock()
	defer n.clientsMu.Unlock()
	if ce, ok := n.clients[name]; ok {
		return ce
	}
	ce := newClientEntity(n, name)
	n.clients[name] = ce
	return ce
}

func (n *Node) clientEntityIfExists(name string) *clientEntity {
	n.clientsMu.Lock()
	defer n.clientsMu.Unlock()
	return n.clients[name]
}

// --- administrative API (each call is a multicast + wait) ---

// CreateGroup deploys a replicated object group. It returns once this
// node has applied the creation (all nodes apply it at the same position
// in the total order).
func (n *Node) CreateGroup(spec replication.GroupSpec, timeout time.Duration) error {
	if err := spec.Props.Validate(); err != nil {
		return err
	}
	if len(spec.Nodes) != spec.Props.InitialReplicas {
		return fmt.Errorf("core: group %q: %d placement nodes for %d initial replicas",
			spec.Name, len(spec.Nodes), spec.Props.InitialReplicas)
	}
	ch := n.subscribe("create:" + spec.Name)
	n.multicast(&replication.Envelope{
		Kind:    replication.KCreateGroup,
		Group:   spec.Name,
		Payload: replication.EncodeSpec(&spec),
	})
	return n.await(ch, timeout)
}

// AwaitGroup blocks until this node has applied the group's creation.
// CreateGroup only waits for the creating node; other nodes apply the
// same envelope at the same position in the total order but on their own
// processing schedule.
func (n *Node) AwaitGroup(name string, timeout time.Duration) error {
	return n.await(n.subscribe("create:"+name), timeout)
}

// KillReplica administratively removes this node's replica of the group —
// the experiments' "kill the server replica". If the group then has fewer
// members than MinimumNumberReplicas, the Resource Manager re-launches
// one automatically.
func (n *Node) KillReplica(group string, timeout time.Duration) error {
	ch := n.subscribe(removedKey(group, n.addr))
	n.multicast(&replication.Envelope{
		Kind:  replication.KRemoveMember,
		Group: group,
		Node:  n.addr,
	})
	return n.await(ch, timeout)
}

// RecoverReplica launches a new replica of the group on this node and
// synchronizes it through the Figure 5 state-transfer protocol. It
// returns when the replica is reinstated to normal operation.
func (n *Node) RecoverReplica(group string, timeout time.Duration) error {
	ch := n.subscribe(recoveredKey(group, n.addr))
	n.multicast(&replication.Envelope{
		Kind:   replication.KAddMember,
		Group:  group,
		Node:   n.addr,
		XferID: n.nextXfer(),
	})
	return n.await(ch, timeout)
}

// AwaitRecovered blocks until a replica of group on node completes its
// state transfer (reinstatement, as measured in the paper's Figure 6).
func (n *Node) AwaitRecovered(group, node string, timeout time.Duration) error {
	return n.await(n.subscribe(recoveredKey(group, node)), timeout)
}

// AwaitPromoted blocks until this node's backup replica of group has been
// promoted to primary (passive failover).
func (n *Node) AwaitPromoted(group, node string, timeout time.Duration) error {
	return n.await(n.subscribe(promotedKey(group, node)), timeout)
}

// HostsReplica reports whether this node currently hosts the group (the
// instance may be a cold-passive log holder).
func (n *Node) HostsReplica(group string) bool {
	done := make(chan bool, 1)
	select {
	case n.calls <- func() { done <- n.hosts[group] != nil }:
	case <-n.stopCh:
		return false
	}
	select {
	case v := <-done:
		return v
	case <-n.stopCh:
		return false
	}
}

// GroupMembers returns the group's current members and their states as
// seen by this node's metadata (a consistent loop-side read).
func (n *Node) GroupMembers(group string) ([]replication.Member, error) {
	type result struct {
		members []replication.Member
		err     error
	}
	done := make(chan result, 1)
	select {
	case n.calls <- func() {
		g, ok := n.table.Get(group)
		if !ok {
			done <- result{err: fmt.Errorf("%w: %q", ErrNoSuchGroup, group)}
			return
		}
		done <- result{members: slices.Clone(g.Members)}
	}:
	case <-n.stopCh:
		return nil, ErrNodeStopped
	}
	select {
	case r := <-done:
		return r.members, r.err
	case <-n.stopCh:
		return nil, ErrNodeStopped
	}
}

// --- internals shared with host/client files ---

func (n *Node) multicast(env *replication.Envelope) {
	// Pooled encode: Processor.Multicast copies the payload into its own
	// chunk buffer before returning, so the encoder can be released here.
	enc := cdr.AcquireEncoder(cdr.BigEndian)
	env.EncodeTo(enc)
	switch {
	case env.Trace != 0:
		// Traced invocation traffic: the totem layer stamps the enqueue
		// and transmit phases onto the trace's span as the message crosses
		// it (replies onto the mirrored reply phases).
		_ = n.proc.MulticastTraced(enc.Bytes(), env.Trace, env.Kind == replication.KReply)
	case env.Kind == replication.KAudit:
		// Audit marks and reports are background traffic: they ride the
		// paced token instead of waking it, so a quiescent ring stays
		// paced across audit epochs (ordering guarantees are identical).
		_ = n.proc.MulticastBackground(enc.Bytes())
	default:
		_ = n.proc.Multicast(enc.Bytes())
	}
	cdr.ReleaseEncoder(enc)
}

// replyOp names one operation's reply: every replica's copy carries the
// same logical connection and operation id.
type replyOp struct {
	conn replication.ConnID
	op   uint32
}

// maxTrackedReplies bounds replyKeys and answered. An entry nobody
// consumes (a reply whose sender left the ring first, an operation the
// local replica never executes) would otherwise stay forever; past the
// bound a map is dropped, which only forgoes some withdrawals.
const maxTrackedReplies = 1 << 14

// multicastReply multicasts a replica's reply. A backup copy (hold) —
// one the fast-path leader's replica answers first — is not multicast at
// all when that answer has already been delivered, and is otherwise
// submitted under a withdrawal key, so the totem layer may hold it back
// and drop it once the answer is delivered (settleReply).
func (n *Node) multicastReply(env *replication.Envelope, hold bool) {
	var key uint64
	if hold {
		op := replyOp{env.Conn, env.OpID}
		n.repliesMu.Lock()
		if n.answered[op] {
			delete(n.answered, op)
			n.repliesMu.Unlock()
			n.counters.repliesSkipped.Add(1)
			return
		}
		if n.replyKeys == nil || len(n.replyKeys) >= maxTrackedReplies {
			n.replyKeys = make(map[replyOp]uint64)
		}
		n.replyKeySeq++
		key = n.replyKeySeq
		n.replyKeys[op] = key
		n.repliesMu.Unlock()
	}
	enc := cdr.AcquireEncoder(cdr.BigEndian)
	env.EncodeTo(enc)
	_ = n.proc.MulticastReply(enc.Bytes(), env.Trace, key)
	cdr.ReleaseEncoder(enc)
}

// settleReply runs at the delivery of any replica's reply: this node's
// own copy of the same reply, if it has not left the node yet, is now a
// duplicate every receiver would discard, so it is withdrawn. The
// delivered copy is already in the total order at every member, so
// withdrawing never loses a reply; when the delivered copy is this
// node's own, there is nothing left to withdraw.
func (n *Node) settleReply(env *replication.Envelope) {
	op := replyOp{env.Conn, env.OpID}
	n.repliesMu.Lock()
	key, ok := n.replyKeys[op]
	if ok {
		delete(n.replyKeys, op)
	} else if g, found := n.table.Get(env.Conn.Group); found && n.hosts[env.Conn.Group] != nil && n.leaderAnswers(g) {
		// Our replica has not answered yet: when it does, its reply is
		// already redundant.
		if n.answered == nil || len(n.answered) >= maxTrackedReplies {
			n.answered = make(map[replyOp]bool)
		}
		n.answered[op] = true
	}
	n.repliesMu.Unlock()
	if ok {
		n.proc.Withdraw(key)
	}
}

// subscribe returns a channel closed when key is signaled. A key already
// signaled yields a closed channel immediately.
func (n *Node) subscribe(key string) chan struct{} {
	n.waitersMu.Lock()
	defer n.waitersMu.Unlock()
	ch := make(chan struct{})
	if n.signaled[key] {
		close(ch)
		return ch
	}
	n.waiters[key] = append(n.waiters[key], ch)
	return ch
}

func (n *Node) signal(key string) {
	n.waitersMu.Lock()
	defer n.waitersMu.Unlock()
	n.signaled[key] = true
	for _, ch := range n.waiters[key] {
		close(ch)
	}
	delete(n.waiters, key)
}

// resetSignal clears a latched signal key (used for repeatable events
// like repeated recoveries of the same group on the same node).
func (n *Node) resetSignal(key string) {
	n.waitersMu.Lock()
	defer n.waitersMu.Unlock()
	delete(n.signaled, key)
}

func (n *Node) await(ch chan struct{}, timeout time.Duration) error {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-ch:
		return nil
	case <-timer:
		return ErrTimedOut
	case <-n.stopCh:
		return ErrNodeStopped
	}
}

func removedKey(group, node string) string { return "removed:" + group + ":" + node }
