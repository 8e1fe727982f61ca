// Package totem implements a Totem-style single-ring reliable
// totally-ordered multicast protocol, the group-communication substrate
// the Eternal system conveys IIOP messages over (Moser et al., "Totem: A
// fault-tolerant multicast group communication system", CACM 1996).
//
// The protocol is token-ring based: a token rotates around the ring of
// live processors carrying the global sequence number, an
// all-received-up-to (aru) aggregation used for flow control and garbage
// collection, and a retransmission-request list. A processor multicasts
// only while holding the token, stamping each message with the next
// sequence number, which yields agreed (gap-free, identical at every
// processor) delivery order.
//
// Membership follows Totem's shape in simplified form: token loss or the
// arrival of a Join message moves processors into a gather phase where
// they advertise the set of processors they can hear; when the
// representative (smallest address) sees a stable set, it forms a new ring
// and delivery continues. Large application messages are fragmented into
// MTU-sized chunks, each a separate ordered multicast — exactly the
// behaviour behind the paper's Figure 6, where recovery time grows with
// state size because state larger than one Ethernet frame costs multiple
// multicast messages.
//
// Guarantees within one ring lineage (an unbroken chain of reformations):
// reliable, agreed-order, gap-free delivery. A processor that joins fresh,
// or rejoins from a divergent lineage (e.g. the losing side of a
// partition), is delivered a Membership view with Reset=true and resumes
// at the new ring's start sequence; Eternal's Recovery Mechanisms treat
// such members as recovering replicas and re-synchronize their state,
// which is the paper's recovery model.
package totem

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/obs"
	"eternal/internal/ring"
	"eternal/internal/simnet"
)

// Packet is one transport frame. It is an alias of simnet.Packet so a
// simulated-network endpoint satisfies Transport directly — no bridging
// goroutine copying between two identical shapes on every frame.
type Packet = simnet.Packet

// Transport is the unreliable datagram layer totem runs over: a broadcast
// medium with bounded frame size, such as internal/simnet or UDP.
//
// Buffer ownership: the payload slice passed to Send and Broadcast is
// owned by the caller and is valid only for the duration of the call. An
// implementation that needs the bytes after returning (queued delivery,
// async I/O) must copy them first. This rule is what lets the protocol
// encode frames into pooled buffers and recycle them immediately after
// handing them to the transport (see doc/PERFORMANCE.md).
type Transport interface {
	// Addr returns this endpoint's unique address.
	Addr() string
	// Send transmits one frame to the named endpoint (best effort). The
	// payload must not be retained after the call returns.
	Send(to string, payload []byte) error
	// Broadcast transmits one frame to all endpoints including this one.
	// The payload must not be retained after the call returns.
	Broadcast(payload []byte) error
	// Recv returns the delivery channel; it closes when the transport does.
	Recv() <-chan Packet
	// MTU is the maximum frame payload size.
	MTU() int
	// Close detaches the endpoint.
	Close() error
}

// NewSimnetTransport adapts a simulated-network endpoint as a Transport.
// The endpoint already satisfies the interface (Packet is simnet.Packet),
// so this is the identity; it remains as the named constructor and the
// place the conformance is pinned.
func NewSimnetTransport(ep *simnet.Endpoint) Transport { return ep }

var _ Transport = (*simnet.Endpoint)(nil)

// Delivery is one event in the totally-ordered delivery stream: either an
// application message (View == nil; reassembled from its fragments) or a
// membership view change (View != nil, Payload empty).
//
// Views are delivered at a consistent position in the stream: after every
// message of the previous ring (sequence numbers up to the view's
// StartSeq) and before every message of the new ring. Every lineage member
// therefore observes messages and view changes interleaved identically —
// the property Eternal's replicated group-metadata state machine depends
// on (e.g. all nodes must agree which requests a failed primary still
// answered).
type Delivery struct {
	Seq     uint64
	Sender  string
	Payload []byte
	View    *Membership
}

// Membership is a view change. Members is sorted. Reset reports that this
// processor did not continue the previous sequence space (fresh join or
// divergent lineage) and must be re-synchronized by the layer above.
type Membership struct {
	Epoch    uint64
	Rep      string
	Members  []string
	Reset    bool
	StartSeq uint64
}

// Stats are cumulative protocol counters.
type Stats struct {
	Multicasts     uint64
	ChunksSent     uint64
	Retransmits    uint64
	TokenRotations uint64
	Deliveries     uint64
	ViewChanges    uint64
	Tombstones     uint64
	// DataFrames counts initial data-frame transmissions (retransmissions
	// excluded). Without packing it equals ChunksSent; with packing it is
	// lower whenever sub-MTU chunks shared a frame.
	DataFrames uint64
	// PackedChunks counts chunks that traveled in a frame shared with at
	// least one other chunk.
	PackedChunks uint64
	// HurriesSent/HurriesReceived count token hurry nudges: broadcasts
	// that wake an idle-paced ring when a member enqueues a message.
	HurriesSent     uint64
	HurriesReceived uint64
	// PacedHops counts token hops parked for idle pacing before being
	// forwarded.
	PacedHops uint64
	// FastPathChunks counts chunks the fast-path leader sequenced
	// immediately (its own and forwarded ones) without a token visit;
	// ChunksSent minus FastPathChunks is the token-ordered share.
	FastPathChunks uint64
	// ForwardedChunks counts chunks this member forwarded to the
	// fast-path leader for sequencing (first transmissions and retries).
	ForwardedChunks uint64
	// GCSeq is the garbage-collection point: the highest sequence number
	// every member held on a completed token rotation. The store keeps
	// nothing at or below it.
	GCSeq uint64
	// ForwardWindowPeak is the most forward frames this member has had in
	// flight to the fast-path leader, with chunks not yet delivered, at
	// one time (the follower window, at most maxHeldForwards).
	ForwardWindowPeak uint64
	// Withdrawn counts replies a fast-path follower held back and then
	// dropped, because another replica's copy was delivered first (see
	// MulticastReply).
	Withdrawn uint64
}

// PackingFlag is a three-valued toggle whose zero value means "on", so
// packing is the default without every Config literal naming it.
type PackingFlag int

const (
	// PackingDefault enables packing (the zero value).
	PackingDefault PackingFlag = iota
	// PackingOff disables packing: one chunk per data frame, the
	// pre-packing wire behaviour. Receivers always understand packed
	// frames regardless of this flag, so mixed rings interoperate.
	PackingOff
	// PackingOn enables packing explicitly.
	PackingOn
)

// Enabled reports whether the flag turns packing on.
func (f PackingFlag) Enabled() bool { return f != PackingOff }

// FastPathMode gates the leader-ordered fast path: an LLFT-style fixed
// sequencer riding on the Totem ring, where the ring leader (the
// representative) assigns sequence numbers immediately on receipt and
// multicasts speculatively instead of waiting for a token visit.
// Delivery still happens only at the totally-ordered point; the token
// keeps rotating behind the fast path to aggregate aru, serve
// retransmissions and garbage-collect. Two windows keep the fast path
// within what the ring can absorb: the leader sequences at once only up
// to windowEnd, a bounded distance above the followers' aru, and a
// follower keeps at most maxHeldForwards forward frames in flight with
// chunks not yet delivered back (see doc/PROTOCOL.md).
type FastPathMode int

const (
	// FastPathAuto (the zero value) enables leader ordering on every
	// multi-member ring; a single-member ring self-delivers on its token.
	FastPathAuto FastPathMode = iota
	// FastPathOff forces classic token-ordered sequencing everywhere (the
	// ablation baseline).
	FastPathOff
)

// enabled reports whether the mode activates leader ordering for a ring
// of the given size.
func (f FastPathMode) enabled(members int) bool {
	return f != FastPathOff && members >= 2
}

// String renders the mode the way the -fast-path flag spells it.
func (f FastPathMode) String() string {
	if f == FastPathOff {
		return "off"
	}
	return "auto"
}

// ParseFastPathMode parses "auto" or "off" (the -fast-path flag).
func ParseFastPathMode(s string) (FastPathMode, error) {
	switch s {
	case "auto", "":
		return FastPathAuto, nil
	case "off":
		return FastPathOff, nil
	}
	return FastPathAuto, fmt.Errorf("totem: unknown fast-path mode %q (want auto or off)", s)
}

// Config configures a Processor. Zero durations get defaults sized for
// LAN-scale simulation; tests shrink them for fast reformations.
type Config struct {
	Transport Transport
	// TokenLossTimeout triggers membership reformation when no token has
	// been seen for this long (default 250ms).
	TokenLossTimeout time.Duration
	// TokenResend retransmits the last token we forwarded if no activity
	// follows (default TokenLossTimeout/4).
	TokenResend time.Duration
	// JoinInterval is the gather-phase Join rebroadcast period (default 40ms).
	JoinInterval time.Duration
	// JoinExpiry drops gather-phase peers not heard from (default 5*JoinInterval).
	JoinExpiry time.Duration
	// StableFor is how long the alive set must stay unchanged before the
	// representative forms a ring (default 2*JoinInterval).
	StableFor time.Duration
	// Tick is the internal timer resolution (default 2ms).
	Tick time.Duration
	// MaxPerToken bounds chunks multicast per token visit (default 64).
	MaxPerToken int
	// MissThreshold is the number of token visits a missing sequence
	// number may stay unsatisfied before it is declared unrecoverable and
	// skipped (default 10).
	MissThreshold int
	// Packing gates Totem message packing: while holding the token, the
	// sender packs multiple sub-MTU chunks — possibly from different
	// application messages — into one data frame under a single sequence
	// number, instead of spending a full frame and sequence number per
	// chunk. Fragments of large messages still fill whole frames; packing
	// recovers the waste on the sub-MTU tail. The zero value enables it;
	// set PackingOff for the ablation baseline.
	Packing PackingFlag
	// FastPath gates the leader-ordered fast path (see FastPathMode). The
	// zero value enables it on every multi-member ring.
	FastPath FastPathMode
	// IdleGrace is how long after the last foreground activity the token
	// keeps rotating at wire speed before idle pacing starts (default
	// 2*Tick). Larger values spend CPU to keep request/reply gaps fast;
	// smaller ones park the ring sooner.
	IdleGrace time.Duration
	// MaxPaceTicks caps the idle pacer's exponential backoff: a long-idle
	// holder parks the token for up to this many ticks per hop (default 4,
	// further clamped so a paced rotation stays within TokenLossTimeout/4).
	MaxPaceTicks int
	// AnnounceInterval is the period of the representative's ring beacon,
	// used to discover foreign rings after a partition heals
	// (default 8*JoinInterval).
	AnnounceInterval time.Duration
	// Metrics receives the processor's live metrics (packet/byte traffic,
	// pending-queue depth, multicast→delivery latency). Nil disables
	// export; the protocol's cumulative Stats() counters work regardless.
	Metrics *obs.Registry
	// Recorder receives protocol-level flight-recorder events: token
	// losses and the other membership-reformation triggers, each anchored
	// to the processor's last delivered sequence number. Nil disables.
	Recorder *obs.Recorder
	// Spans receives per-invocation phase marks for traced multicasts
	// (enqueued behind the token, last fragment transmitted). Nil
	// disables; untraced multicasts never touch it either way.
	Spans *obs.SpanRecorder
	// RotationCapacity bounds the token-rotation profiler's sample ring
	// (default obs.DefaultRotationCapacity; negative disables profiling).
	RotationCapacity int
}

func (c Config) withDefaults() Config {
	if c.TokenLossTimeout <= 0 {
		c.TokenLossTimeout = 250 * time.Millisecond
	}
	if c.TokenResend <= 0 {
		c.TokenResend = c.TokenLossTimeout / 4
	}
	if c.JoinInterval <= 0 {
		c.JoinInterval = 40 * time.Millisecond
	}
	if c.JoinExpiry <= 0 {
		c.JoinExpiry = 5 * c.JoinInterval
	}
	if c.StableFor <= 0 {
		c.StableFor = 2 * c.JoinInterval
	}
	if c.Tick <= 0 {
		c.Tick = 2 * time.Millisecond
	}
	if c.MaxPerToken <= 0 {
		c.MaxPerToken = 64
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 10
	}
	if c.IdleGrace <= 0 {
		c.IdleGrace = 2 * c.Tick
	}
	if c.MaxPaceTicks <= 0 {
		c.MaxPaceTicks = 4
	}
	if c.AnnounceInterval <= 0 {
		c.AnnounceInterval = 8 * c.JoinInterval
	}
	return c
}

// fragMargin is the reserve for chunk headers within one frame.
const fragMargin = 192

// maxRtrPerToken bounds the retransmission list so tokens fit one frame.
const maxRtrPerToken = 100

// idleHopsCap bounds the token's idle-hop counter so it cannot wrap.
const idleHopsCap = 1 << 20

// Errors returned by Processor methods.
var (
	ErrStopped     = errors.New("totem: processor stopped")
	ErrAddrTooLong = errors.New("totem: transport address exceeds 64 bytes")
	ErrMTUTooSmall = errors.New("totem: transport MTU too small for protocol headers")
)

const (
	stateGather = iota
	stateOperational
)

type joinRecord struct {
	msg    *joinMsg
	seenAt time.Time
}

type partial struct {
	frags  [][]byte
	next   uint32
	broken bool
}

// Processor is one member of the totem ring.
type Processor struct {
	cfg  Config
	tr   Transport
	addr string

	submitCh  chan submission
	closeCh   chan struct{}
	closeOnce sync.Once
	done      chan struct{}

	deliveries *pump[Delivery]
	views      *pump[Membership]

	// Protocol state below is owned exclusively by the run goroutine.
	state    int
	ring     ringIdentity
	prevRing ringIdentity
	members  []string
	seqHigh  uint64
	myAru    uint64
	gcLow    uint64
	store    map[uint64]*dataMsg
	// pending holds chunks enqueued locally and awaiting a token visit; a
	// ring buffer so delivered chunks are released, not retained by a
	// shifted slice's backing array.
	pending ring.Buffer[chunk]
	packing bool
	msgID   uint64
	reasm   map[string]*partial
	round   uint64
	miss    map[uint64]int

	joinInfo     map[string]joinRecord
	stableSince  time.Time
	aliveKey     string
	lastJoinSent time.Time
	maxEpoch     uint64

	// pendingViews holds view changes whose stream position (StartSeq) the
	// local aru has not reached yet; they are released by advanceAru.
	pendingViews []pendingView

	lastTokenAt   time.Time
	lastSentToken *tokenMsg
	lastSentAt    time.Time
	tokenResends  int
	// parkedToken holds the token while pacing an idle ring (including the
	// single-member self-delivery case); it is released once parkedUntil
	// passes (the adaptive pacer's backoff), or immediately when new
	// foreground messages are enqueued or a hurry nudge arrives.
	parkedToken    *tokenMsg
	parkedUntil    time.Time
	lastAnnounceAt time.Time

	// Adaptive pacing state. lastActivityAt is the last time this member
	// did foreground protocol work (sent or forwarded non-background
	// chunks, served or requested retransmissions); the pacer holds wire
	// speed for IdleGrace past it. hurried marks that a hurry nudge allows
	// the next forward to skip pacing once. lastPaceTicks is the backoff
	// applied by the most recent forward (0 = wire speed), recorded into
	// the rotation profile.
	lastActivityAt time.Time
	lastHurryAt    time.Time
	hurried        bool
	lastPaceTicks  int

	// Leader-ordered fast path state (see FastPathMode). fastPath and
	// leader are fixed per ring at install time. Followers keep submitted
	// chunks in pending until their sequenced copies are delivered:
	// headFseq is the forward sequence number of the pending head,
	// fwdCount the number of chunks (from the head) forwarded and not yet
	// delivered, and fwdFrames the chunk counts of the forward frames
	// carrying them, oldest first — at most maxHeldForwards frames, the
	// follower window. lastFwdAt starts the retry clock: it is reset when
	// the head is (re)sent or delivered, never by later forwards, so
	// steady submissions cannot postpone the retry of a lost head. The leader's
	// fwdMarks holds the per-sender in-order acceptance watermark, fwdHeld
	// parks frames that arrived ahead of a gap (the medium reorders
	// back-to-back unicasts) until the gap fills, and peerAru holds the
	// freshest aru known for each follower — from the token, or
	// piggybacked on its forwards — which anchors the leader window.
	fastPath  bool
	leader    string
	headFseq  uint64
	fwdCount  int
	fwdFrames ring.Buffer[int]
	lastFwdAt time.Time
	fwdMarks  map[string]uint64
	fwdHeld   map[string]map[uint64]*forwardMsg
	peerAru   map[string]uint64

	// Held replies (see MulticastReply): held keeps a follower's keyed
	// replies, in submission order, until a token visit finds them older
	// than the previous visit; withdrawable maps each held reply's key to
	// its message id, and a reply missing from it has been withdrawn.
	// follower mirrors "fast path on and not the leader" for Withdraw,
	// which runs on callers' goroutines; withdrawQ holds the keys
	// withdrawn since the run goroutine last looked (under withdrawMu).
	held         ring.Buffer[chunk]
	withdrawable map[uint64]uint64
	follower     atomic.Bool
	leaderName   atomic.Pointer[string]
	withdrawMu   sync.Mutex
	withdrawQ    []uint64

	// aruReported is the aru a follower last sent the leader, on a
	// forward frame or a bare report (see reportAru).
	aruReported uint64

	// rtrHorizon is the highest sequence number a token advertised to
	// this member at least rtrDelay ago, and rtrMarks the later visits'
	// (time, token sequence) pairs: retransmission requests stop at the
	// horizon, so a frame multicast moments before the token arrived is
	// not requested while it is still on its way.
	rtrHorizon uint64
	rtrMarks   ring.Buffer[rtrMark]

	nMulticasts atomic.Uint64
	nChunks     atomic.Uint64
	nRetrans    atomic.Uint64
	nRotations  atomic.Uint64
	nDeliveries atomic.Uint64
	nViews      atomic.Uint64
	nTombstones atomic.Uint64
	nDataFrames atomic.Uint64
	nPacked     atomic.Uint64
	nHurrySent  atomic.Uint64
	nHurryRecv  atomic.Uint64
	nPacedHops  atomic.Uint64
	nFastChunks atomic.Uint64
	nFwdChunks  atomic.Uint64
	nGCSeq      atomic.Uint64
	nFwdPeak    atomic.Uint64
	nWithdrawn  atomic.Uint64

	// Metrics export (nil-safe via a private registry when unconfigured).
	mPktsIn   *obs.Counter
	mBytesIn  *obs.Counter
	mPktsOut  *obs.Counter
	mBytesOut *obs.Counter
	// mPending is the sequencing queue depth: chunks enqueued locally and
	// waiting for a token visit to be stamped and multicast.
	mPending *obs.Gauge
	// mLatency is the multicast→delivery latency of this processor's own
	// messages (submit to agreed-order delivery, the full token-ring
	// ordering cost).
	mLatency *obs.Histogram
	// mTokenHold/mTokenInterval are the rotation profiler's histograms:
	// how long this node holds each token visit, and the full-rotation
	// interval between visits.
	mTokenHold     *obs.Histogram
	mTokenInterval *obs.Histogram
	// rotations is the token-rotation profiler's bounded sample ring
	// (nil when disabled).
	rotations *obs.RotationLog
	// sendTimes records the submit metadata of locally originated
	// messages by msgID; owned by the run goroutine.
	sendTimes map[uint64]sendMeta
}

// submission is one application message queued for the run goroutine:
// its pre-fragmented chunks plus the span-tracing metadata. background
// marks low-urgency control traffic (audit marks and reports) that rides
// the paced token instead of waking it; a nonzero key marks a backup reply
// (see MulticastReply).
type submission struct {
	chunks     [][]byte
	trace      uint64
	reply      bool
	background bool
	key        uint64
}

// sendMeta is what the processor remembers about a locally originated
// message between submission and self-delivery.
type sendMeta struct {
	at         time.Time
	trace      uint64
	reply      bool
	background bool
	key        uint64
}

// Start creates a processor on the given transport and begins gathering
// membership immediately.
func Start(cfg Config) (*Processor, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil {
		return nil, errors.New("totem: Config.Transport is required")
	}
	addr := cfg.Transport.Addr()
	if len(addr) > 64 {
		return nil, fmt.Errorf("%w: %q", ErrAddrTooLong, addr)
	}
	if cfg.Transport.MTU() < fragMargin+64 {
		return nil, fmt.Errorf("%w: %d", ErrMTUTooSmall, cfg.Transport.MTU())
	}
	p := &Processor{
		cfg:          cfg,
		tr:           cfg.Transport,
		addr:         addr,
		submitCh:     make(chan submission, 256),
		closeCh:      make(chan struct{}),
		done:         make(chan struct{}),
		deliveries:   newPump[Delivery](),
		views:        newPump[Membership](),
		store:        make(map[uint64]*dataMsg),
		reasm:        make(map[string]*partial),
		miss:         make(map[uint64]int),
		joinInfo:     make(map[string]joinRecord),
		sendTimes:    make(map[uint64]sendMeta),
		withdrawable: make(map[uint64]uint64),
		packing:      cfg.Packing.Enabled(),
	}
	if cfg.RotationCapacity >= 0 {
		p.rotations = obs.NewRotationLog(cfg.RotationCapacity)
	}
	p.registerMetrics(cfg.Metrics)
	go p.run()
	return p, nil
}

// registerMetrics wires the processor's export surface into the registry
// (a private one when nil, so hot paths never nil-check).
func (p *Processor) registerMetrics(r *obs.Registry) {
	if r == nil {
		r = obs.NewRegistry()
	}
	p.mPktsIn = r.Counter("eternal_totem_packets_in_total", "transport frames received")
	p.mBytesIn = r.Counter("eternal_totem_bytes_in_total", "transport bytes received")
	p.mPktsOut = r.Counter("eternal_totem_packets_out_total", "transport frames sent (broadcast and unicast)")
	p.mBytesOut = r.Counter("eternal_totem_bytes_out_total", "transport bytes sent")
	p.mPending = r.Gauge("eternal_totem_sequencer_queue_depth", "chunks enqueued and awaiting a token visit for sequencing")
	p.mLatency = r.Histogram("eternal_totem_mcast_delivery_seconds", "multicast submit to agreed-order delivery latency of own messages", nil)
	p.mTokenHold = r.Histogram("eternal_totem_token_hold_seconds", "time this node held each token visit (retransmission service + pending-queue drain)", nil)
	p.mTokenInterval = r.Histogram("eternal_totem_token_interval_seconds", "full-rotation interval between this node's token visits", nil)
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"eternal_totem_multicasts_total", "application messages submitted for total ordering", &p.nMulticasts},
		{"eternal_totem_chunks_sent_total", "MTU-sized chunks multicast while holding the token", &p.nChunks},
		{"eternal_totem_retransmits_total", "chunks retransmitted to serve token Rtr requests", &p.nRetrans},
		{"eternal_totem_token_rotations_total", "completed token rotations observed as aru setter", &p.nRotations},
		{"eternal_totem_deliveries_total", "messages delivered in agreed order", &p.nDeliveries},
		{"eternal_totem_view_changes_total", "membership views delivered", &p.nViews},
		{"eternal_totem_tombstones_total", "unrecoverable sequence numbers skipped", &p.nTombstones},
		{"eternal_totem_data_frames_total", "data frames initially transmitted (retransmissions excluded)", &p.nDataFrames},
		{"eternal_totem_packed_messages_total", "chunks that shared a packed frame with at least one other chunk", &p.nPacked},
		{"eternal_totem_hurries_sent_total", "token hurry nudges broadcast on enqueue into an idle-paced ring", &p.nHurrySent},
		{"eternal_totem_hurries_received_total", "token hurry nudges received from peers", &p.nHurryRecv},
		{"eternal_totem_paced_hops_total", "token hops parked for idle pacing before forwarding", &p.nPacedHops},
		{"eternal_totem_fastpath_chunks_total", "chunks the fast-path leader sequenced immediately, without a token visit", &p.nFastChunks},
		{"eternal_totem_fastpath_forwards_total", "chunks forwarded to the fast-path leader for sequencing (including retries)", &p.nFwdChunks},
		{"eternal_totem_withdrawn_total", "replies a fast-path follower held back and withdrew before they left it", &p.nWithdrawn},
	} {
		v := c.v
		r.CounterFunc(c.name, c.help, func() float64 { return float64(v.Load()) })
	}
	r.GaugeFunc("eternal_totem_frames_per_message", "data frames per application message; packing drives this below the fragment count", func() float64 {
		m := p.nMulticasts.Load()
		if m == 0 {
			return 0
		}
		return float64(p.nDataFrames.Load()) / float64(m)
	})
}

// Addr returns the processor's transport address.
func (p *Processor) Addr() string { return p.addr }

// Deliveries returns the agreed-order delivery stream.
func (p *Processor) Deliveries() <-chan Delivery { return p.deliveries.Out() }

// Views returns the membership view stream.
func (p *Processor) Views() <-chan Membership { return p.views.Out() }

// Stats returns a snapshot of the protocol counters.
func (p *Processor) Stats() Stats {
	return Stats{
		Multicasts:        p.nMulticasts.Load(),
		ChunksSent:        p.nChunks.Load(),
		Retransmits:       p.nRetrans.Load(),
		TokenRotations:    p.nRotations.Load(),
		Deliveries:        p.nDeliveries.Load(),
		ViewChanges:       p.nViews.Load(),
		Tombstones:        p.nTombstones.Load(),
		DataFrames:        p.nDataFrames.Load(),
		PackedChunks:      p.nPacked.Load(),
		HurriesSent:       p.nHurrySent.Load(),
		HurriesReceived:   p.nHurryRecv.Load(),
		PacedHops:         p.nPacedHops.Load(),
		FastPathChunks:    p.nFastChunks.Load(),
		ForwardedChunks:   p.nFwdChunks.Load(),
		GCSeq:             p.nGCSeq.Load(),
		ForwardWindowPeak: p.nFwdPeak.Load(),
		Withdrawn:         p.nWithdrawn.Load(),
	}
}

// PendingChunks reports the current depth of this member's sequencing
// queue: chunks submitted locally and not yet multicast on a token visit
// (on a fast-path follower, not yet delivered back; on the fast-path
// leader, also forwards held back by the leader window). Zero means
// everything this member submitted has reached the wire — the
// self-clocking signal the state-transfer streamer paces on.
func (p *Processor) PendingChunks() int64 { return p.mPending.Value() }

// Multicast submits one application message for reliable totally-ordered
// delivery to all ring members (including the sender). The payload is
// fragmented into MTU-sized chunks transparently; delivery is whole
// messages. Multicast may block briefly when the submit queue is full.
func (p *Processor) Multicast(payload []byte) error {
	return p.MulticastTraced(payload, 0, false)
}

// MulticastBackground is Multicast for low-urgency control traffic
// (consistency-audit marks and reports): the message rides the paced
// token without resetting the idle counter, waking a parked token or
// triggering a hurry nudge, so a quiescent ring stays paced across audit
// epochs. Ordering and reliability guarantees are identical.
func (p *Processor) MulticastBackground(payload []byte) error {
	return p.submit(payload, 0, false, true, 0)
}

// MulticastTraced is Multicast carrying span-tracing metadata: the
// message's envelope trace id (0 = untraced) and whether it is a reply,
// so the configured span recorder can stamp the enqueue and transmit
// phases under the right name.
func (p *Processor) MulticastTraced(payload []byte, trace uint64, reply bool) error {
	return p.submit(payload, trace, reply, false, 0)
}

// MulticastReply is MulticastTraced for a replica's reply. A nonzero key
// marks the reply as a backup copy: under active replication every
// replica answers and receivers keep the first copy in the total order,
// and when the fast-path leader hosts a replica too, its copy is
// sequenced first. A fast-path follower therefore holds a keyed reply
// back for a full token rotation instead of forwarding it at once; if
// Withdraw names the key meanwhile (another replica's copy was
// delivered), the reply is dropped unsent. A held reply that is not
// withdrawn is forwarded behind whatever this member submitted after it,
// so keyed replies are exempt from per-sender FIFO order. Everywhere
// else, and with key 0, MulticastReply is MulticastTraced.
func (p *Processor) MulticastReply(payload []byte, trace, key uint64) error {
	return p.submit(payload, trace, true, false, key)
}

// Leader returns the fast-path leader of the current ring, or "" while
// the ring orders on the token alone.
func (p *Processor) Leader() string {
	if l := p.leaderName.Load(); l != nil {
		return *l
	}
	return ""
}

// Withdraw drops the reply submitted under key if this member still holds
// it back (see MulticastReply); otherwise it does nothing. Withdrawal is
// best effort: a reply already forwarded is ordered and delivered as
// usual, and receivers discard it as a duplicate.
func (p *Processor) Withdraw(key uint64) {
	if !p.follower.Load() {
		return
	}
	p.withdrawMu.Lock()
	if len(p.withdrawQ) < maxWithdrawQueue {
		p.withdrawQ = append(p.withdrawQ, key)
	}
	p.withdrawMu.Unlock()
}

// maxWithdrawQueue bounds the withdrawals waiting for the run goroutine;
// past it, further withdrawals are ignored (the replies are sent).
const maxWithdrawQueue = 4096

func (p *Processor) submit(payload []byte, trace uint64, reply, background bool, key uint64) error {
	chunkSize := p.tr.MTU() - fragMargin - len(p.addr)
	// One defensive copy of the whole payload; chunks are subslices of it
	// rather than per-chunk allocations.
	buf := make([]byte, len(payload))
	copy(buf, payload)
	var chunks [][]byte
	if len(buf) == 0 {
		chunks = [][]byte{{}}
	}
	for off := 0; off < len(buf); off += chunkSize {
		end := min(off+chunkSize, len(buf))
		chunks = append(chunks, buf[off:end:end])
	}
	select {
	case p.submitCh <- submission{chunks: chunks, trace: trace, reply: reply, background: background, key: key}:
		p.nMulticasts.Add(1)
		return nil
	case <-p.done:
		return ErrStopped
	}
}

// Stop shuts the processor down and closes its transport. Other members
// detect the silence as a failure and reform the ring.
func (p *Processor) Stop() {
	p.closeOnce.Do(func() { close(p.closeCh) })
	<-p.done
}

func (p *Processor) run() {
	defer func() {
		p.tr.Close()
		// Drain the transport so its forwarding goroutine can exit.
		go func() {
			for range p.tr.Recv() {
			}
		}()
		p.deliveries.Close()
		p.views.Close()
		close(p.done)
	}()
	ticker := time.NewTicker(p.cfg.Tick)
	defer ticker.Stop()

	p.enterGather(time.Now(), "")

	for {
		select {
		case <-p.closeCh:
			return
		case sub := <-p.submitCh:
			p.enqueue(sub)
			background := sub.background
			if p.fastPath {
				// Leader ordering sequences on the submit path: take the
				// submissions already queued behind this one first, so a
				// burst is sequenced (and packed) as one batch.
				for n := len(p.submitCh); n > 0; n-- {
					sub = <-p.submitCh
					p.enqueue(sub)
					background = background && sub.background
				}
			}
			p.kick(background, time.Now())
		case pkt, ok := <-p.tr.Recv():
			if !ok {
				return
			}
			p.handlePacket(pkt, time.Now())
		case now := <-ticker.C:
			p.onTick(now)
		}
	}
}

func (p *Processor) enqueue(sub submission) {
	p.msgID++
	id := p.msgID
	total := uint32(len(sub.chunks))
	held := sub.key != 0 && p.state == stateOperational && p.fastPath && p.addr != p.leader
	for i, c := range sub.chunks {
		ch := chunk{
			Sender:    p.addr,
			MsgID:     id,
			FragIdx:   uint32(i),
			FragTotal: total,
			Payload:   c,
		}
		if held {
			p.held.Push(ch)
		} else {
			p.pending.Push(ch)
		}
	}
	if held {
		p.withdrawable[sub.key] = id
	}
	p.sendTimes[id] = sendMeta{at: time.Now(), trace: sub.trace, reply: sub.reply, background: sub.background, key: sub.key}
	if sub.trace != 0 {
		if sub.reply {
			p.cfg.Spans.MarkOpen(sub.trace, obs.SpanReplyEnqueued)
		} else {
			p.cfg.Spans.Mark(sub.trace, obs.SpanEnqueued)
		}
	}
	p.mPending.Set(int64(p.pending.Len()))
}

func (p *Processor) handlePacket(pkt Packet, now time.Time) {
	p.mPktsIn.Inc()
	p.mBytesIn.Add(uint64(len(pkt.Payload)))
	if pkt.From == p.addr && len(pkt.Payload) > 0 && (pkt.Payload[0] == ptData || pkt.Payload[0] == ptPacked) {
		// Our own data frame, looped back by the medium: it went into the
		// store when we sent it, so there is nothing to decode. Under
		// leader ordering that is every frame the leader multicasts.
		return
	}
	msg, err := decodePacket(pkt.Payload)
	if err != nil {
		return // corrupt frame: drop, like a bad checksum
	}
	switch m := msg.(type) {
	case *dataMsg:
		p.handleData(m, now)
	case *tokenMsg:
		p.handleToken(m, now)
	case *joinMsg:
		p.handleJoin(m, now)
	case *formMsg:
		p.handleForm(m, now)
	case *announceMsg:
		p.handleAnnounce(m, now)
	case *hurryMsg:
		p.handleHurry(m, now)
	case *forwardMsg:
		p.handleForward(m, now)
	}
}

// kick dispatches a freshly enqueued submission onto whatever path gets
// it sequenced fastest. Background traffic takes none of them: it rides
// the next (possibly paced) token visit so audit marks do not keep a
// quiescent ring spinning.
func (p *Processor) kick(background bool, now time.Time) {
	if p.state != stateOperational {
		return
	}
	if p.fastPath {
		// Leader ordering: no token involvement on the submit path while
		// the windows are open.
		if p.addr == p.leader {
			p.fastDrain(now)
		} else {
			p.pumpForwards(now)
		}
		return
	}
	if background {
		return
	}
	if p.parkedToken != nil {
		// Wake our own paced token immediately so enqueueing does not
		// cost a tick of latency.
		p.releaseParked(now)
		return
	}
	if len(p.members) > 1 && now.Sub(p.lastHurryAt) >= p.cfg.Tick {
		// The token may be parked at another member: nudge it loose
		// rather than waiting out up to members×MaxPaceTicks×Tick of
		// pacing. Rate-limited to one nudge per tick; during an active
		// burst the extra frame is noise the holder ignores.
		p.lastHurryAt = now
		p.hurried = true
		p.nHurrySent.Add(1)
		p.bcastMsg(&hurryMsg{Ring: p.ring, Origin: p.addr})
	}
}

// handleHurry reacts to a peer's hurry nudge: release a parked token at
// once and let the next forward skip pacing, so the token crosses the
// ring at wire speed until the nudging enqueuer is served.
func (p *Processor) handleHurry(m *hurryMsg, now time.Time) {
	if p.state != stateOperational || m.Ring != p.ring || m.Origin == p.addr {
		return
	}
	p.nHurryRecv.Add(1)
	p.hurried = true
	if p.parkedToken != nil {
		p.releaseParked(now)
	}
}

// --- operational phase ---

func (p *Processor) handleData(m *dataMsg, now time.Time) {
	if p.state != stateOperational {
		return
	}
	if m.Ring != p.ring {
		// Stale traffic from a superseded ring (in flight across a
		// reformation) or genuinely foreign traffic. Either way ignore it:
		// lineage peers recover real gaps by retransmission, and foreign
		// rings are discovered through the announce beacon, which carries
		// enough identity to distinguish stale from foreign.
		return
	}
	if m.Seq <= p.gcLow || m.Seq <= p.myAru {
		return // already garbage-collected or delivered
	}
	if _, dup := p.store[m.Seq]; dup {
		return
	}
	p.store[m.Seq] = m
	delete(p.miss, m.Seq)
	if m.Seq > p.seqHigh {
		p.seqHigh = m.Seq
	}
	p.advanceAru()
	p.pumpForwards(now)
	p.reportAru()
}

// reportAru sends the leader a bare aru report — a forward frame without
// chunks — once this follower has delivered a quarter of the leader window
// past its last report, so the window advances even while the follower
// has nothing to forward.
func (p *Processor) reportAru() {
	if p.fastPath && p.addr != p.leader && p.myAru >= p.aruReported+leaderWindow/4 {
		p.aruReported = p.myAru
		p.sendMsg(p.leader, &forwardMsg{Ring: p.ring, Sender: p.addr, Aru: p.myAru})
	}
}

// handleAnnounce reacts to a ring beacon: a beacon naming a ring we are
// not part of means a foreign ring shares the segment (healed partition),
// so we reform to merge — unless the beacon is recognizably stale (its
// representative is one of our members and its epoch is not newer).
func (p *Processor) handleAnnounce(m *announceMsg, now time.Time) {
	if m.Ring.Epoch > p.maxEpoch {
		// Gatherers learn the current epoch from beacons so their joins
		// are not dismissed as stale.
		p.maxEpoch = m.Ring.Epoch
	}
	if p.state != stateOperational || m.Ring == p.ring {
		return
	}
	if slices.Contains(p.members, m.Ring.Rep) && m.Ring.Epoch <= p.ring.Epoch {
		return // stale beacon from one of our own earlier rings
	}
	p.enterGather(now, "foreign-ring")
}

func (p *Processor) handleToken(tok *tokenMsg, now time.Time) {
	if p.state != stateOperational || tok.Ring != p.ring {
		return
	}
	if tok.Round <= p.round {
		return // duplicate from token retransmission
	}
	prevVisit := p.lastTokenAt
	p.round = tok.Round
	p.lastTokenAt = now
	p.lastSentToken = nil
	p.tokenResends = 0

	if tok.Seq > p.seqHigh {
		p.seqHigh = tok.Seq
	}
	fastLeader := p.fastPath && p.addr == p.leader
	if fastLeader {
		// Fast-path sequencing ran ahead of the token; advertise the high
		// mark so followers can request anything the speculative
		// multicasts lost. The arriving aru is a lower bound on every
		// follower's: it refreshes the leader window's anchor.
		tok.Seq = p.seqHigh
		for m, a := range p.peerAru {
			p.peerAru[m] = max(a, tok.Aru)
		}
	}

	// 1. Serve retransmission requests we can satisfy.
	served := 0
	var unsatisfied []uint64
	for _, s := range tok.Rtr {
		if m, ok := p.store[s]; ok && len(m.Chunks) > 0 {
			re := *m
			re.Ring = p.ring // re-tag under the current ring
			p.bcastMsg(&re)
			p.nRetrans.Add(1)
			served++
		} else if s > p.gcLow {
			unsatisfied = append(unsatisfied, s)
		}
	}
	rtrDone := now
	if p.rotations != nil {
		rtrDone = time.Now()
	}

	// 2. Request what we are missing — up to the sequence number a token
	// advertised at least rtrDelay ago. Anything above it was multicast
	// more recently and is most likely still in flight (a busy ring's
	// token overtakes data queued on the medium); if it was lost, a later
	// visit requests it.
	rtr := unsatisfied
	have := make(map[uint64]bool, len(rtr))
	for _, s := range rtr {
		have[s] = true
	}
	p.rtrMarks.Push(rtrMark{at: now, seq: tok.Seq})
	for m, ok := p.rtrMarks.Peek(); ok && now.Sub(m.at) >= p.rtrDelay(); m, ok = p.rtrMarks.Peek() {
		p.rtrHorizon = max(p.rtrHorizon, m.seq)
		p.rtrMarks.Pop()
	}
	horizon := min(tok.Seq, p.rtrHorizon)
	for s := p.myAru + 1; s <= horizon && len(rtr) < maxRtrPerToken; s++ {
		if _, ok := p.store[s]; ok || have[s] {
			continue
		}
		rtr = append(rtr, s)
		p.miss[s]++
		if p.miss[s] > p.cfg.MissThreshold {
			// No live member holds this message: skip it with a chunkless
			// tombstone so delivery can proceed (see package doc).
			p.store[s] = &dataMsg{Ring: p.ring, Seq: s}
			delete(p.miss, s)
			rtr = rtr[:len(rtr)-1]
			p.nTombstones.Add(1)
		}
	}
	tok.Rtr = rtr
	p.advanceAru()

	// 3. Multicast pending chunks while we hold the token. Fast-path
	// followers never sequence: their pending queue is the forward
	// window plus what waits behind it, drained as sequenced copies are
	// delivered. The fast-path leader first sequences what its window
	// admits, then spends the classic per-visit allowance on whatever the
	// window held back.
	pendingBefore := p.pending.Len()
	var sent, fgSent int
	if p.fastPath && p.addr != p.leader {
		// A held reply still not withdrawn after a full rotation and
		// rtrDelay is forwarded: the replica expected to answer first
		// has not (its copy would have arrived by then).
		cutoff := now.Add(-p.rtrDelay())
		if prevVisit.Before(cutoff) {
			cutoff = prevVisit
		}
		p.releaseHeld(cutoff)
		p.pumpForwards(now)
	} else {
		if fastLeader {
			p.fastDrain(now)
			tok.Seq = p.seqHigh
		}
		sent, fgSent = p.sendPending(&tok.Seq, p.cfg.MaxPerToken, false)
	}

	// Token idling: IdleHops counts consecutive hops on which no holder
	// did foreground work — the ring-wide idleness signal the adaptive
	// pacer (paceTicks) combines with the local IdleGrace window.
	// Background chunks (audit marks) ride the token without resetting
	// the counter, so a quiescent ring stays paced across audit epochs.
	// Under leader ordering, foreground chunks sequenced or forwarded
	// since the previous visit count too: the ring is busy even though
	// the token carried none of it.
	busy := p.fastPath && p.lastActivityAt.After(prevVisit)
	if served > 0 || fgSent > 0 || len(tok.Rtr) > 0 || busy {
		tok.IdleHops = 0
		p.lastActivityAt = now
	} else if tok.IdleHops < idleHopsCap {
		tok.IdleHops++
	}

	// 4. Aggregate aru; a completed rotation fixes the GC point.
	if tok.AruSetter == "" || tok.AruSetter == p.addr {
		if tok.AruSetter == p.addr {
			tok.GCSeq = tok.Aru
			p.nRotations.Add(1)
		}
		tok.Aru = p.myAru
		tok.AruSetter = p.addr
	} else if p.myAru < tok.Aru {
		tok.Aru = p.myAru
	}

	// 5. Garbage-collect messages everyone has.
	if tok.GCSeq > p.gcLow {
		for s := p.gcLow + 1; s <= tok.GCSeq; s++ {
			delete(p.store, s)
		}
		p.gcLow = tok.GCSeq
		p.nGCSeq.Store(p.gcLow)
	}

	// 6. Forward the token, then profile the visit (the forward decides
	// the pacing state the sample records).
	idleHops := tok.IdleHops
	var end time.Time
	if p.rotations != nil {
		end = time.Now()
	}
	p.forwardToken(tok, now)
	if p.rotations != nil {
		sample := obs.TokenRotation{
			At:            now,
			Round:         p.round,
			HoldUs:        float64(end.Sub(now).Nanoseconds()) / 1e3,
			RetransUs:     float64(rtrDone.Sub(now).Nanoseconds()) / 1e3,
			SendUs:        float64(end.Sub(rtrDone).Nanoseconds()) / 1e3,
			RetransServed: served,
			ChunksSent:    sent,
			PendingBefore: pendingBefore,
			PendingAfter:  p.pending.Len(),
			IdleHops:      idleHops,
			Paced:         p.lastPaceTicks > 0,
			PaceTicks:     p.lastPaceTicks,
		}
		if !prevVisit.IsZero() {
			sample.IntervalUs = float64(now.Sub(prevVisit).Nanoseconds()) / 1e3
			p.mTokenInterval.ObserveDuration(now.Sub(prevVisit))
		}
		p.mTokenHold.ObserveDuration(end.Sub(now))
		p.rotations.Record(sample)
	}
}

// rtrMark records the sequence number a token advertised on one visit.
type rtrMark struct {
	at  time.Time
	seq uint64
}

// rtrDelay is how long a sequence number must have been advertised
// before a member missing it asks for a retransmission: a quarter of the
// token-resend period, well above how long a frame queues on a busy
// medium and well below how long a lost frame may stay missing.
func (p *Processor) rtrDelay() time.Duration { return p.cfg.TokenResend / 4 }

// Rotations returns up to max most recent token-rotation profiler
// samples, oldest first (nil when profiling is disabled).
func (p *Processor) Rotations(max int) []obs.TokenRotation {
	return p.rotations.Last(max)
}

// sendPending multicasts queued chunks, bounded by budget chunks, each
// frame taking the sequence number after *seq (the token's on a classic
// visit, seqHigh on the fast path). It returns how many chunks were sent
// and how many of those were this member's own foreground chunks — the
// count that feeds the idle pacer (a leader's accepted forwards already
// marked foreground activity when they arrived). With packing enabled,
// consecutive sub-MTU chunks — possibly belonging to different
// application messages and senders — share one frame and one sequence
// number; the conservative wireCost bound keeps each packed frame within
// the MTU without a trial encode. fast marks frames sequenced by the
// leader-ordered fast path (counters only; the wire format is identical).
func (p *Processor) sendPending(seq *uint64, budget int, fast bool) (sent, fgSent int) {
	mtu := p.tr.MTU()
	for sent < budget && p.pending.Len() > 0 {
		first, _ := p.pending.Pop()
		sent++
		frame := &dataMsg{Chunks: []chunk{first}}
		size := packedFrameOverhead + len(p.ring.Rep) + first.wireCost()
		if p.packing {
			for sent < budget {
				next, ok := p.pending.Peek()
				if !ok || size+next.wireCost() > mtu {
					break
				}
				p.pending.Pop()
				sent++
				frame.Chunks = append(frame.Chunks, next)
				size += next.wireCost()
			}
		}
		*seq++
		frame.Ring = p.ring
		frame.Seq = *seq
		p.store[frame.Seq] = frame
		if frame.Seq > p.seqHigh {
			p.seqHigh = frame.Seq
		}
		p.bcastMsg(frame)
		p.nChunks.Add(uint64(len(frame.Chunks)))
		p.nDataFrames.Add(1)
		if len(frame.Chunks) > 1 {
			p.nPacked.Add(uint64(len(frame.Chunks)))
		}
		if fast {
			p.nFastChunks.Add(uint64(len(frame.Chunks)))
		}
		for i := range frame.Chunks {
			c := &frame.Chunks[i]
			if c.Sender != p.addr {
				continue // an accepted forward: its sender traces it
			}
			meta, ok := p.sendTimes[c.MsgID]
			if !ok || !meta.background {
				fgSent++
			}
			if p.cfg.Spans == nil || c.FragIdx != c.FragTotal-1 {
				continue // the message is on the wire once its last fragment is
			}
			if ok && meta.trace != 0 {
				if meta.reply {
					p.cfg.Spans.MarkOpen(meta.trace, obs.SpanReplyTransmitted)
				} else {
					p.cfg.Spans.Mark(meta.trace, obs.SpanTransmitted)
				}
			}
		}
	}
	if sent > 0 {
		p.mPending.Set(int64(p.pending.Len()))
		p.advanceAru()
	}
	return sent, fgSent
}

// fastDrain sequences queued chunks — the leader's own and accepted
// forwards, in arrival order — immediately, while the leader window is
// open: the leader-ordered fast path's submit side. The leader stamps and
// multicasts without waiting for a token visit; the rotating token still
// aggregates aru, serves retransmissions and garbage-collects behind it.
// Chunks beyond the window wait for the leader's next token visit.
func (p *Processor) fastDrain(now time.Time) {
	for p.pending.Len() > 0 {
		end := p.windowEnd()
		if p.seqHigh >= end {
			return
		}
		room := end - p.seqHigh
		// A frame carries at least one chunk, so a chunk budget of room
		// never overshoots the window.
		if _, fgSent := p.sendPending(&p.seqHigh, int(min(room, uint64(p.cfg.MaxPerToken))), true); fgSent > 0 {
			p.lastActivityAt = now
		}
	}
}

// windowEnd is the highest sequence number the fast-path leader may
// assign without a token visit: leaderWindow frames above the lowest aru
// known among the followers. Followers report their aru at least every
// quarter window they deliver (reportAru), so the window stays open while
// they keep up; a follower that falls behind holds the leader to its
// pace, and its delivery backlog to about one window, instead of letting
// the leader's local clients run ahead of the ring.
func (p *Processor) windowEnd() uint64 {
	base := p.myAru
	for _, a := range p.peerAru {
		base = min(base, a)
	}
	return base + leaderWindow
}

// leaderWindow is the leader window in frames: half a follower window.
// Every frame the leader runs ahead of a lagging follower is latency that
// follower's own clients pay twice (request and reply).
const leaderWindow = maxHeldForwards / 2

func (p *Processor) forwardToken(tok *tokenMsg, now time.Time) {
	tok.Round++
	p.lastPaceTicks = 0
	succ := p.successor()
	if succ == p.addr {
		// Single-member ring: drain everything pending, then pace the
		// self-rotation (wire speed would be a hot loop).
		for p.pending.Len() > 0 {
			p.sendPending(&tok.Seq, p.cfg.MaxPerToken, false)
		}
		p.park(tok, now, max(1, p.paceTicks(tok, now)))
		return
	}
	if ticks := p.paceTicks(tok, now); ticks > 0 {
		p.park(tok, now, ticks)
		return
	}
	p.transmitToken(tok, succ, now)
}

// paceTicks decides whether this hop should pace the token and for how
// many ticks; zero means forward at wire speed. Pacing starts after a
// fully idle rotation (IdleHops covers every member): one tick per hop
// at first, and once IdleGrace has also passed since this member's last
// foreground activity the backoff doubles with each further idle
// rotation up to MaxPaceTicks, clamped so a fully paced rotation stays
// within a quarter of the token-loss timeout. An idle-but-recent ring
// therefore never spins at wire speed — a hurry nudge (or a local
// enqueue) is what cancels pacing when latency matters.
func (p *Processor) paceTicks(tok *tokenMsg, now time.Time) int {
	members := len(p.members)
	if int(tok.IdleHops) < members {
		return 0
	}
	if p.hurried {
		// A nudged token crosses this hop at wire speed (once).
		p.hurried = false
		return 0
	}
	if now.Sub(p.lastActivityAt) < p.cfg.IdleGrace {
		return 1
	}
	ticks := 1
	for r := int(tok.IdleHops)/members - 1; r > 0 && ticks < p.cfg.MaxPaceTicks; r-- {
		ticks <<= 1
	}
	if ticks > p.cfg.MaxPaceTicks {
		ticks = p.cfg.MaxPaceTicks
	}
	if budget := int(p.cfg.TokenLossTimeout / 4 / (time.Duration(members) * p.cfg.Tick)); budget < ticks {
		ticks = max(budget, 1)
	}
	return ticks
}

// park holds the token for the given number of ticks; onTick releases it
// once parkedUntil passes (or sooner, on enqueue or hurry).
func (p *Processor) park(tok *tokenMsg, now time.Time, ticks int) {
	p.parkedToken = tok
	p.parkedUntil = now.Add(time.Duration(ticks-1) * p.cfg.Tick)
	p.lastPaceTicks = ticks
	p.nPacedHops.Add(1)
}

func (p *Processor) transmitToken(tok *tokenMsg, succ string, now time.Time) {
	p.lastSentToken = tok
	p.lastSentAt = now
	p.tokenResends = 0
	p.sendMsg(succ, tok)
}

// releaseParked resumes a paced token: any newly-enqueued chunks are sent
// first, then the token moves on (or is re-handled on single-member rings).
func (p *Processor) releaseParked(now time.Time) {
	tok := p.parkedToken
	p.parkedToken = nil
	if p.state != stateOperational || tok.Ring != p.ring {
		return // ring changed while parked; the new ring mints a new token
	}
	if p.pending.Len() > 0 && !(p.fastPath && p.addr != p.leader) {
		if p.fastPath && p.seqHigh > tok.Seq {
			tok.Seq = p.seqHigh
		}
		if _, fgSent := p.sendPending(&tok.Seq, p.cfg.MaxPerToken, false); fgSent > 0 {
			tok.IdleHops = 0
			p.lastActivityAt = now
		}
	}
	succ := p.successor()
	if succ == p.addr {
		p.handleToken(tok, now)
		return
	}
	p.transmitToken(tok, succ, now)
}

func (p *Processor) successor() string {
	i := slices.Index(p.members, p.addr)
	if i < 0 {
		return p.addr
	}
	return p.members[(i+1)%len(p.members)]
}

// pumpForwards forwards whatever the follower window admits: pending
// chunks not yet forwarded, while fewer than maxHeldForwards forward
// frames are undelivered. Deliveries acknowledge the head and reopen the
// window, so a burst streams to the leader at the rate the ring delivers
// it instead of all at once, and chunks that queue meanwhile leave packed
// into full frames.
func (p *Processor) pumpForwards(now time.Time) {
	if !p.fastPath || p.addr == p.leader {
		return
	}
	if p.fwdCount < p.pending.Len() && p.fwdFrames.Len() < maxHeldForwards {
		p.forwardPending(now, p.fwdCount)
	}
}

// releaseHeld moves the held replies submitted before cutoff onto the
// pending queue, dropping those withdrawn meanwhile. A zero cutoff
// releases all of them (the ring changed).
func (p *Processor) releaseHeld(cutoff time.Time) {
	p.withdrawMu.Lock()
	keys := p.withdrawQ
	p.withdrawQ = nil
	p.withdrawMu.Unlock()
	for _, k := range keys {
		if id, ok := p.withdrawable[k]; ok {
			delete(p.withdrawable, k)
			delete(p.sendTimes, id)
			p.nWithdrawn.Add(1)
		}
	}
	for c, ok := p.held.Peek(); ok; c, ok = p.held.Peek() {
		meta, live := p.sendTimes[c.MsgID]
		if live && !cutoff.IsZero() && !meta.at.Before(cutoff) {
			break
		}
		p.held.Pop()
		if live {
			delete(p.withdrawable, meta.key)
			p.pending.Push(c)
		}
	}
	p.mPending.Set(int64(p.pending.Len()))
}

// forwardPending unicasts pending chunks from position from onward to the
// fast-path leader for immediate sequencing, packed into MTU-sized
// forward frames, as many as the follower window has room for. Each
// chunk carries a per-ring forward sequence number
// (headFseq + position) that stays stable across retries, so the leader's
// in-order acceptance sequences every chunk exactly once no matter how
// forwards are lost, duplicated or reordered. from == fwdCount sends only
// new chunks (the submit and delivery paths); from == 0 resends the window
// (the retry path, which must start at the head: the leader only
// sequences in order, so a lost frame's chunks have to be re-offered
// before anything after them; packing from the head fits at least as many
// chunks into the window's frames as before). Every frame piggybacks this
// member's aru, the fresher anchor for the leader window.
func (p *Processor) forwardPending(now time.Time, from int) {
	n := p.pending.Len()
	if from >= n {
		return
	}
	if from == 0 {
		p.lastFwdAt = now
		for p.fwdFrames.Len() > 0 {
			p.fwdFrames.Pop()
		}
	}
	p.aruReported = p.myAru
	mtu := p.tr.MTU()
	overhead := fwdFrameOverhead + len(p.addr) + len(p.ring.Rep)
	frame := &forwardMsg{Ring: p.ring, Sender: p.addr, Start: p.headFseq + uint64(from), Aru: p.myAru}
	size := overhead
	pos := from
	for ; pos < n; pos++ {
		c := p.pending.At(pos)
		if len(frame.Chunks) > 0 && size+c.wireCost() > mtu {
			p.sendForward(frame)
			if p.fwdFrames.Len() == maxHeldForwards {
				break
			}
			frame = &forwardMsg{Ring: p.ring, Sender: p.addr, Start: p.headFseq + uint64(pos), Aru: p.myAru}
			size = overhead
		}
		var flags byte
		meta, ok := p.sendTimes[c.MsgID]
		if ok && meta.background {
			flags |= fwdFlagBackground
		}
		frame.Chunks = append(frame.Chunks, *c)
		frame.Flags = append(frame.Flags, flags)
		size += c.wireCost()
		if pos >= p.fwdCount {
			// First forward of this chunk: it is on its way to the
			// sequencer, the moment the span model calls "transmitted".
			if !meta.background {
				p.lastActivityAt = now
			}
			if p.cfg.Spans != nil && c.FragIdx == c.FragTotal-1 && ok && meta.trace != 0 {
				if meta.reply {
					p.cfg.Spans.MarkOpen(meta.trace, obs.SpanReplyTransmitted)
				} else {
					p.cfg.Spans.Mark(meta.trace, obs.SpanTransmitted)
				}
			}
		}
	}
	if pos == n {
		p.sendForward(frame)
	}
	p.fwdCount = max(p.fwdCount, pos)
}

// sendForward unicasts one forward frame to the leader and enters it in
// the follower window.
func (p *Processor) sendForward(frame *forwardMsg) {
	p.sendMsg(p.leader, frame)
	p.nFwdChunks.Add(uint64(len(frame.Chunks)))
	p.fwdFrames.Push(len(frame.Chunks))
	if w := uint64(p.fwdFrames.Len()); w > p.nFwdPeak.Load() {
		p.nFwdPeak.Store(w)
	}
}

// maxHeldForwards is the follower window: the most forward frames a
// follower has in flight with chunks not yet delivered back to it. It
// also bounds the per-sender buffer of out-of-order forward frames the
// leader parks while a gap fills, so a follower's frames in flight always
// fit. A frame past the cap (a retry duplicate) is dropped and the
// follower's retry covers it.
const maxHeldForwards = 32

// handleForward accepts a follower's forwarded chunks — the leader side
// of the fast path. The per-sender watermark admits only the chunks that
// extend the contiguous forward sequence: duplicates (from retries) fall
// below it and are dropped. A frame that arrives ahead of a gap is parked
// in fwdHeld and accepted the moment the gap fills — the medium reorders
// back-to-back unicasts routinely, and bouncing the frame to the
// follower's retry timer would turn every swap into a stall. Only a
// genuinely lost frame leaves a hole for the retry. Accepted chunks join
// the leader's sequencing queue behind its own, so sequencing is
// exactly-once and submission-ordered per sender, and subject to the
// leader window.
func (p *Processor) handleForward(m *forwardMsg, now time.Time) {
	if p.state != stateOperational || m.Ring != p.ring {
		return
	}
	if !p.fastPath || p.addr != p.leader {
		return // mode or leadership changed in flight; the sender will retry or fall back to the token
	}
	if a, ok := p.peerAru[m.Sender]; ok && m.Aru > a {
		p.peerAru[m.Sender] = m.Aru
	}
	if len(m.Chunks) > 0 && p.acceptForward(m, now) {
		// Accept any parked frames the new watermark reaches.
		for held := p.fwdHeld[m.Sender]; len(held) > 0; {
			var next *forwardMsg
			for s, f := range held {
				if s <= p.fwdMarks[m.Sender]+1 {
					next = f
					delete(held, s)
					break
				}
			}
			if next == nil {
				break
			}
			p.acceptForward(next, now)
		}
		p.mPending.Set(int64(p.pending.Len()))
	}
	p.fastDrain(now)
}

// acceptForward admits one forward frame against the sender's watermark:
// chunks at or below it are dropped as duplicates, a frame strictly ahead
// of it is parked in fwdHeld, and the in-order remainder joins the
// sequencing queue. Returns whether the watermark advanced.
func (p *Processor) acceptForward(m *forwardMsg, now time.Time) bool {
	wm := p.fwdMarks[m.Sender]
	if m.Start > wm+1 {
		held := p.fwdHeld[m.Sender]
		if held == nil {
			held = make(map[uint64]*forwardMsg)
			p.fwdHeld[m.Sender] = held
		}
		if len(held) < maxHeldForwards {
			held[m.Start] = m
		}
		return false
	}
	skip := 0
	if wm >= m.Start {
		skip = int(wm - m.Start + 1)
	}
	if skip >= len(m.Chunks) {
		return false
	}
	p.fwdMarks[m.Sender] = m.Start + uint64(len(m.Chunks)) - 1
	for i := skip; i < len(m.Chunks); i++ {
		if m.Flags[i]&fwdFlagBackground == 0 {
			p.lastActivityAt = now
		}
		// Chunk payloads alias the forward packet's buffer, exactly as
		// handleData's stored frames alias theirs.
		p.pending.Push(m.Chunks[i])
	}
	return true
}

// pendingView is a view change waiting for its stream position.
type pendingView struct {
	at   uint64
	view Membership
}

// advanceAru delivers every message that has become contiguous, releasing
// pending view changes at their stream positions.
func (p *Processor) advanceAru() {
	p.releaseViews()
	for {
		m, ok := p.store[p.myAru+1]
		if !ok {
			break
		}
		p.myAru++
		delete(p.miss, p.myAru)
		p.deliverMsg(m)
		p.releaseViews()
	}
}

func (p *Processor) releaseViews() {
	for len(p.pendingViews) > 0 && p.myAru >= p.pendingViews[0].at {
		pv := p.pendingViews[0]
		p.pendingViews = p.pendingViews[1:]
		v := pv.view
		p.nViews.Add(1)
		p.views.In(v)
		p.deliveries.In(Delivery{Seq: pv.at, View: &v})
	}
}

// deliverMsg delivers one data frame: every chunk it carries, in order. A
// chunkless frame is the tombstone for an unrecoverable sequence number.
// Chunks packed into one frame share its sequence number, so consecutive
// Deliveries may carry equal Seq values.
func (p *Processor) deliverMsg(m *dataMsg) {
	for i := range m.Chunks {
		p.deliverChunk(m.Seq, &m.Chunks[i])
	}
}

func (p *Processor) deliverChunk(seq uint64, c *chunk) {
	if c.FragTotal == 0 {
		return // malformed chunk; a wire frame never carries one
	}
	if c.Sender == p.addr {
		// Fast-path followers keep submitted chunks pending until their
		// sequenced copies come back; deliveries arrive in forward order,
		// so each own delivery acknowledges the pending head. Chunks the
		// classic path sequenced were popped at send time and never match.
		if head, ok := p.pending.Peek(); ok && head.Sender == c.Sender && head.MsgID == c.MsgID && head.FragIdx == c.FragIdx {
			p.pending.Pop()
			p.headFseq++
			// The head moved: restart the retry clock on the new head.
			p.lastFwdAt = time.Now()
			if p.fwdCount > 0 {
				p.fwdCount--
				// The head chunk rode the oldest frame in the window.
				if f, ok := p.fwdFrames.Peek(); ok && f > 1 {
					*p.fwdFrames.At(0) = f - 1
				} else {
					p.fwdFrames.Pop()
				}
			}
			p.mPending.Set(int64(p.pending.Len()))
		}
	}
	if c.FragTotal == 1 {
		p.observeOwn(c)
		p.emit(Delivery{Seq: seq, Sender: c.Sender, Payload: c.Payload})
		return
	}
	key := c.Sender
	pa := p.reasm[key]
	if c.FragIdx == 0 {
		pa = &partial{}
		p.reasm[key] = pa
	}
	if pa == nil || pa.broken || pa.next != c.FragIdx {
		// A fragment whose predecessors were lost (tombstoned): the whole
		// message is undeliverable; drop the remainder quietly.
		if pa != nil {
			pa.broken = true
		}
		if c.FragIdx == c.FragTotal-1 {
			delete(p.reasm, key)
		}
		return
	}
	pa.frags = append(pa.frags, c.Payload)
	pa.next++
	if pa.next == c.FragTotal {
		delete(p.reasm, key)
		p.observeOwn(c)
		var size int
		for _, f := range pa.frags {
			size += len(f)
		}
		joined := make([]byte, 0, size)
		for _, f := range pa.frags {
			joined = append(joined, f...)
		}
		p.emit(Delivery{Seq: seq, Sender: c.Sender, Payload: joined})
	}
}

func (p *Processor) emit(d Delivery) {
	p.nDeliveries.Add(1)
	p.deliveries.In(d)
}

// observeOwn records the submit→delivery latency of a locally originated
// message, at the delivery of its last fragment.
func (p *Processor) observeOwn(c *chunk) {
	if c.Sender != p.addr {
		return
	}
	if meta, ok := p.sendTimes[c.MsgID]; ok {
		delete(p.sendTimes, c.MsgID)
		p.mLatency.ObserveDuration(time.Since(meta.at))
	}
}

// --- gather phase (membership) ---

// enterGather moves the processor into the membership gather phase.
// reason names the trigger for the flight recorder ("" for the silent
// initial gather at startup).
func (p *Processor) enterGather(now time.Time, reason string) {
	if reason != "" && p.cfg.Recorder != nil {
		typ := obs.EventReform
		if reason == "token-loss" {
			typ = obs.EventTokenLoss
		}
		p.cfg.Recorder.Record(obs.Event{
			Type: typ, Seq: p.myAru, Detail: reason,
		})
	}
	if p.state == stateOperational {
		p.prevRing = p.ring
	}
	p.state = stateGather
	p.joinInfo = make(map[string]joinRecord)
	p.stableSince = now
	p.aliveKey = ""
	p.lastSentToken = nil
	p.parkedToken = nil
	p.hurried = false
	p.fastPath = false
	p.sendJoin(now)
}

func (p *Processor) sendJoin(now time.Time) {
	p.lastJoinSent = now
	j := &joinMsg{
		Sender:   p.addr,
		Alive:    p.aliveSet(now),
		PrevRing: p.prevRing,
		HighSeq:  p.seqHigh,
		MaxEpoch: p.maxEpoch,
	}
	p.bcastMsg(j)
}

func (p *Processor) aliveSet(now time.Time) []string {
	alive := []string{p.addr}
	for a, rec := range p.joinInfo {
		if now.Sub(rec.seenAt) <= p.cfg.JoinExpiry && a != p.addr {
			alive = append(alive, a)
		}
	}
	slices.Sort(alive)
	return alive
}

func (p *Processor) handleJoin(j *joinMsg, now time.Time) {
	if j.MaxEpoch > p.maxEpoch {
		p.maxEpoch = j.MaxEpoch
	}
	if j.Sender == p.addr {
		return
	}
	if p.state == stateOperational {
		if j.MaxEpoch < p.ring.Epoch {
			// A stale join, sent before our ring formed (typically one in
			// flight from the gather that produced this very ring). Do not
			// reform; instead tell the sender which ring is current so a
			// genuine joiner can re-join with a fresh epoch.
			ann := announceMsg{Ring: p.ring}
			p.sendMsg(j.Sender, &ann)
			return
		}
		// Someone with current knowledge is rejoining or merging: reform.
		p.enterGather(now, "peer-join")
	}
	p.joinInfo[j.Sender] = joinRecord{msg: j, seenAt: now}
	if j.HighSeq > 0 && j.PrevRing == p.prevRing && j.HighSeq > p.seqHigh {
		// A lineage peer knows of more messages than we do.
		p.seqHigh = j.HighSeq
	}
}

func (p *Processor) handleForm(f *formMsg, now time.Time) {
	if f.Ring.Epoch > p.maxEpoch {
		p.maxEpoch = f.Ring.Epoch
	}
	if !slices.Contains(f.Members, p.addr) {
		return
	}
	if f.Ring.Epoch <= p.ring.Epoch {
		// A form no newer than the last ring we installed: our own
		// broadcast echoed back, or one delayed past a reformation. Even
		// while gathering it must not be installed — re-installing a ring
		// we already left would reset the sequence space under an
		// identity whose sequence numbers already carried messages.
		return
	}
	p.installRing(f, now)
}

func (p *Processor) installRing(f *formMsg, now time.Time) {
	continued := p.prevRing == f.Lineage && !f.Lineage.isZero()
	// A brand-new lineage (everyone fresh, epoch 1 with zero lineage)
	// also "continues" trivially from sequence 0.
	if f.Lineage.isZero() && p.prevRing.isZero() {
		continued = true
	}
	p.state = stateOperational
	p.ring = f.Ring
	p.prevRing = f.Ring
	p.members = slices.Clone(f.Members)
	slices.Sort(p.members)
	p.round = 0
	p.lastTokenAt = now
	p.lastSentToken = nil
	p.parkedToken = nil
	p.lastAnnounceAt = now
	p.lastActivityAt = now
	p.hurried = false
	p.lastPaceTicks = 0
	// Fast-path fallback on view change: mode and leadership are fixed
	// per ring, the forward window restarts from scratch, and chunks
	// still pending (forwarded but not yet sequenced, or never forwarded)
	// drain through whichever path the new ring uses. A chunk the old
	// leader sequenced whose delivery is still in flight can be sequenced
	// a second time this way; the replication layer's duplicate filter
	// absorbs it (see DESIGN.md). Forwards an old leader accepted but had
	// not sequenced are dropped here: their senders still hold them and
	// re-offer them on the new ring.
	for n := p.pending.Len(); n > 0; n-- {
		if c, _ := p.pending.Pop(); c.Sender == p.addr {
			p.pending.Push(c)
		}
	}
	p.mPending.Set(int64(p.pending.Len()))
	p.fastPath = p.cfg.FastPath.enabled(len(p.members))
	p.leader = f.Ring.Rep
	// Replies held back under the old ring go out under the new one.
	p.releaseHeld(time.Time{})
	p.follower.Store(p.fastPath && p.addr != p.leader)
	if leader := p.leader; p.fastPath {
		p.leaderName.Store(&leader)
	} else {
		p.leaderName.Store(nil)
	}
	p.headFseq = 1
	p.fwdCount = 0
	for p.fwdFrames.Len() > 0 {
		p.fwdFrames.Pop()
	}
	p.lastFwdAt = time.Time{}
	p.fwdMarks = make(map[string]uint64)
	p.fwdHeld = make(map[string]map[uint64]*forwardMsg)
	p.peerAru = make(map[string]uint64, len(p.members))
	p.miss = make(map[uint64]int)
	if f.Ring.Epoch > p.maxEpoch {
		p.maxEpoch = f.Ring.Epoch
	}
	reset := !continued
	if reset {
		p.store = make(map[uint64]*dataMsg)
		p.reasm = make(map[string]*partial)
		// Own messages already multicast under the abandoned lineage will
		// never be delivered; keep submit times only for still-pending chunks.
		live := make(map[uint64]sendMeta, p.pending.Len())
		p.pending.Each(func(c *chunk) {
			if meta, ok := p.sendTimes[c.MsgID]; ok {
				live[c.MsgID] = meta
			}
		})
		p.sendTimes = live
		p.myAru = f.StartSeq
		p.gcLow = f.StartSeq
		p.seqHigh = f.StartSeq
		// Views queued for positions in the abandoned sequence space are
		// meaningless now.
		p.pendingViews = nil
	} else {
		if f.StartSeq > p.seqHigh {
			p.seqHigh = f.StartSeq
		}
		// Drop partial reassemblies from members that did not survive.
		for sender := range p.reasm {
			if !slices.Contains(p.members, sender) {
				delete(p.reasm, sender)
			}
		}
	}
	p.rtrHorizon = f.StartSeq
	for p.rtrMarks.Len() > 0 {
		p.rtrMarks.Pop()
	}
	p.aruReported = p.myAru
	if p.fastPath && f.Ring.Rep == p.addr {
		// The leader window starts at the leader's own aru; tokens and
		// forwards refresh each follower's entry from there.
		for _, m := range p.members {
			if m != p.addr {
				p.peerAru[m] = p.myAru
			}
		}
	}
	p.pendingViews = append(p.pendingViews, pendingView{
		at: f.StartSeq,
		view: Membership{
			Epoch:    f.Ring.Epoch,
			Rep:      f.Ring.Rep,
			Members:  slices.Clone(p.members),
			Reset:    reset,
			StartSeq: f.StartSeq,
		},
	})
	p.releaseViews()
	if f.Ring.Rep == p.addr {
		// The representative injects the first token.
		tok := &tokenMsg{
			Ring:      f.Ring,
			Round:     0,
			Seq:       f.StartSeq,
			Aru:       p.myAru,
			AruSetter: p.addr,
			GCSeq:     p.gcLow,
		}
		p.forwardToken(tok, now)
	}
}

func (p *Processor) tryFormRing(now time.Time) {
	alive := p.aliveSet(now)
	key := strings.Join(alive, ",")
	if key != p.aliveKey {
		p.aliveKey = key
		p.stableSince = now
		return
	}
	if now.Sub(p.stableSince) < p.cfg.StableFor {
		return
	}
	if alive[0] != p.addr {
		return // not the representative
	}
	// Choose the continuation lineage: our own previous ring. StartSeq is
	// the highest sequence known among lineage members.
	lineage := p.prevRing
	startSeq := p.seqHigh
	for _, a := range alive {
		rec, ok := p.joinInfo[a]
		if !ok {
			continue
		}
		if rec.msg.PrevRing == lineage && rec.msg.HighSeq > startSeq {
			startSeq = rec.msg.HighSeq
		}
	}
	p.maxEpoch++
	f := &formMsg{
		Ring:     ringIdentity{Epoch: p.maxEpoch, Rep: p.addr},
		Members:  alive,
		Lineage:  lineage,
		StartSeq: startSeq,
	}
	p.bcastMsg(f)
	p.installRing(f, now)
}

// --- timers ---

func (p *Processor) onTick(now time.Time) {
	switch p.state {
	case stateGather:
		if now.Sub(p.lastJoinSent) >= p.cfg.JoinInterval {
			p.sendJoin(now)
		}
		p.tryFormRing(now)
	case stateOperational:
		// The representative's beacon must fire even while the token is
		// parked: a long-paced ring (idle single member, deep backoff)
		// still has to be discoverable for partition merges.
		if p.ring.Rep == p.addr && now.Sub(p.lastAnnounceAt) >= p.cfg.AnnounceInterval {
			p.lastAnnounceAt = now
			ann := announceMsg{Ring: p.ring}
			p.bcastMsg(&ann)
		}
		if p.fastPath && p.addr != p.leader && p.fwdCount > 0 && now.Sub(p.lastFwdAt) >= p.cfg.TokenResend {
			// Forward retry of the window, from the un-acknowledged head
			// so the leader's in-order acceptance can fill any gap a lost
			// forward frame left.
			p.forwardPending(now, 0)
		}
		if p.parkedToken != nil {
			if !now.Before(p.parkedUntil) {
				p.releaseParked(now)
			}
			return
		}
		if now.Sub(p.lastTokenAt) > p.cfg.TokenLossTimeout {
			p.enterGather(now, "token-loss")
			return
		}
		if p.lastSentToken != nil && now.Sub(p.lastSentAt) >= p.cfg.TokenResend && p.tokenResends < 3 {
			p.tokenResends++
			p.lastSentAt = now
			p.sendMsg(p.successor(), p.lastSentToken)
		}
	}
}

// bcastMsg encodes m into a pooled buffer, broadcasts it, and returns the
// buffer to the pool — legal because Transport implementations must not
// retain the payload after Broadcast returns (see Transport).
func (p *Processor) bcastMsg(m wireMsg) {
	e := cdr.AcquireEncoder(cdr.BigEndian)
	m.encodeTo(e)
	buf := e.Bytes()
	p.mPktsOut.Inc()
	p.mBytesOut.Add(uint64(len(buf)))
	_ = p.tr.Broadcast(buf)
	cdr.ReleaseEncoder(e)
}

// sendMsg is bcastMsg for unicast.
func (p *Processor) sendMsg(to string, m wireMsg) {
	e := cdr.AcquireEncoder(cdr.BigEndian)
	m.encodeTo(e)
	buf := e.Bytes()
	p.mPktsOut.Inc()
	p.mBytesOut.Add(uint64(len(buf)))
	_ = p.tr.Send(to, buf)
	cdr.ReleaseEncoder(e)
}
