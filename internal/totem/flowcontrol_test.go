package totem

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"eternal/internal/obs"
	"eternal/internal/simnet"
)

// paperLANConfig is the paper's testbed medium: 100 Mbps shared Ethernet,
// 1518-byte frames, ~50µs propagation.
func paperLANConfig() simnet.Config {
	return simnet.Config{BandwidthBps: 100_000_000, Latency: 50 * time.Microsecond, MTU: simnet.EthernetMTU}
}

// benchTimings is the totem configuration of the repo's benchmarks.
func benchTimings(tr Transport) Config {
	return Config{
		Transport:        tr,
		TokenLossTimeout: 200 * time.Millisecond,
		JoinInterval:     10 * time.Millisecond,
		StableFor:        20 * time.Millisecond,
		Tick:             time.Millisecond,
	}
}

// startRing starts one processor per address with cfg's timings and waits
// for every member to see the full view.
func startRing(t *testing.T, net *simnet.Network, cfg func(Transport) Config, addrs ...string) []*Processor {
	t.Helper()
	var procs []*Processor
	for _, a := range addrs {
		ep, err := net.Join(a)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Start(cfg(NewSimnetTransport(ep)))
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
		}
	})
	for _, p := range procs {
		awaitView(t, p, addrs, 5*time.Second)
	}
	return procs
}

// recorder drains one processor's delivery stream into a log of
// "sender/payload" entries and signals the processor's own deliveries.
type recorder struct {
	mu      sync.Mutex
	log     []string
	lastSeq uint64
	own     chan struct{}
}

func record(p *Processor, ownDepth int) *recorder {
	r := &recorder{own: make(chan struct{}, ownDepth)}
	go func() {
		for d := range p.Deliveries() {
			if d.View != nil {
				continue
			}
			r.mu.Lock()
			r.log = append(r.log, d.Sender+"/"+string(d.Payload))
			r.lastSeq = d.Seq
			r.mu.Unlock()
			if d.Sender == p.Addr() {
				select {
				case r.own <- struct{}{}:
				default:
				}
			}
		}
	}()
	return r
}

func (r *recorder) seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastSeq
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.log)
}

// TestSustainedLoadLeaderOrdering is the regression test for the fast
// path's flow control: closed-loop submitters on the leader and on a
// follower, each keeping twice the follower window outstanding, load
// rings of 2, 3 and 5 members on the paper LAN. Without the leader
// window the leader runs ahead of the ring, the token queues behind the
// backlog and the ring falls apart; without the follower window a
// follower's forwards swamp the medium. The ring must instead carry the
// load with no view change, identical delivery on every member, a
// garbage-collection point that keeps up, and a follower that never has
// more than maxHeldForwards chunks forwarded and undelivered.
func TestSustainedLoadLeaderOrdering(t *testing.T) {
	load := 2 * time.Second
	if testing.Short() {
		load = 400 * time.Millisecond
	}
	for _, n := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			var addrs []string
			for i := range n {
				addrs = append(addrs, fmt.Sprintf("p%d", i))
			}
			procs := startRing(t, simnet.New(paperLANConfig()), benchTimings, addrs...)
			const depth = 2 * maxHeldForwards
			recs := make([]*recorder, n)
			views := make([]uint64, n)
			for i, p := range procs {
				recs[i] = record(p, depth)
				views[i] = p.Stats().ViewChanges
			}
			// procs[0] is the representative and so the leader; procs[1]
			// is a follower.
			stop := make(chan struct{})
			sent := make([]int, 2)
			var wg sync.WaitGroup
			for s := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p, r := procs[s], recs[s]
					outstanding := 0
					for i := 0; ; i++ {
						for outstanding >= depth {
							select {
							case <-r.own:
								outstanding--
							case <-stop:
								return
							}
						}
						select {
						case <-stop:
							return
						default:
						}
						// Mostly small messages, every 16th spanning two
						// frames so fragments ride the windows too.
						size := 64
						if i%16 == 0 {
							size = 2000
						}
						payload := fmt.Appendf(make([]byte, 0, size), "%d-%06d-", s, i)
						payload = append(payload, make([]byte, size-len(payload))...)
						if err := p.Multicast(payload); err != nil {
							t.Error(err)
							return
						}
						sent[s]++
						outstanding++
					}
				}()
			}
			time.Sleep(load / 2)
			midSeq := recs[0].seq()
			time.Sleep(load / 2)
			gcAtEnd := make([]uint64, n)
			for i, p := range procs {
				gcAtEnd[i] = p.Stats().GCSeq
			}
			close(stop)
			wg.Wait()
			// The ring carries tens of thousands of messages a second;
			// one per 2ms of load, a floor even the race detector on a
			// slow host clears, shows the submitters were not stalled.
			total := sent[0] + sent[1]
			if floor := int(load / (2 * time.Millisecond)); total < floor {
				t.Fatalf("only %d messages submitted in %v of load, want >= %d", total, load, floor)
			}

			deadline := time.Now().Add(10 * time.Second)
			var logs [][]string
			for {
				logs = logs[:0]
				done := true
				for _, r := range recs {
					l := r.snapshot()
					logs = append(logs, l)
					done = done && len(l) >= total
				}
				if done {
					break
				}
				if time.Now().After(deadline) {
					for i, l := range logs {
						t.Logf("%s delivered %d/%d, stats %+v", addrs[i], len(l), total, procs[i].Stats())
					}
					t.Fatalf("members did not all deliver the %d messages", total)
				}
				time.Sleep(10 * time.Millisecond)
			}
			for i := 1; i < n; i++ {
				if !slices.Equal(logs[i], logs[0]) {
					k := 0
					for k < min(len(logs[i]), len(logs[0])) && logs[i][k] == logs[0][k] {
						k++
					}
					t.Fatalf("%s's delivery sequence diverges from %s's at %d", addrs[i], addrs[0], k)
				}
			}
			for i, p := range procs {
				st := p.Stats()
				if st.ViewChanges != views[i] {
					t.Fatalf("%s: %d view changes under load", addrs[i], st.ViewChanges-views[i])
				}
				// Garbage collection keeps pace with the load: by the end
				// of the run everyone has collected past what the leader
				// had delivered at its midpoint.
				if gcAtEnd[i] < midSeq {
					t.Fatalf("%s: gc point %d at the end of the load, want >= %d", addrs[i], gcAtEnd[i], midSeq)
				}
			}
			if peak := procs[1].Stats().ForwardWindowPeak; peak == 0 || peak > maxHeldForwards {
				t.Fatalf("follower forward window peaked at %d, want 1..%d", peak, maxHeldForwards)
			}
		})
	}
}

// TestForwardRetryNotPostponedBySubmissions drops one forward frame while
// the follower keeps submitting. The retry clock is keyed to the oldest
// undelivered forward, so the lost chunk is re-offered within a few
// TokenResend periods even though every new submission sends a fresh
// forward behind it.
func TestForwardRetryNotPostponedBySubmissions(t *testing.T) {
	net := simnet.New(simnet.Config{})
	procs := startRing(t, net, fastConfig, "a", "b")
	leader, follower := procs[0], procs[1]
	resend := fastConfig(nil).withDefaults().TokenResend
	recA, recB := record(leader, 1), record(follower, 1)

	// Lose exactly the first forward: drop b→a until it has left b.
	net.SetLink("b", "a", simnet.LinkOverride{Drop: true})
	if err := follower.Multicast([]byte("m-0000")); err != nil {
		t.Fatal(err)
	}
	for follower.Stats().ForwardedChunks == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	net.ClearLink("b", "a")
	lostAt := time.Now()

	// Keep submitting, one message every 5ms, until the lost one is
	// delivered or long past the point a working retry would fire. At
	// this pace the follower window stays open for the retry's whole
	// wait, so only a retry clock that new forwards leave alone fires.
	stop := make(chan struct{})
	submitted := make(chan int, 1)
	go func() {
		i := 1
		defer func() { submitted <- i }()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for ; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if err := follower.Multicast(fmt.Appendf(nil, "m-%04d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	limit := 4 * resend
	for {
		if l := recA.snapshot(); len(l) > 0 {
			break
		}
		if time.Since(lostAt) > 5*limit {
			break
		}
		time.Sleep(time.Millisecond)
	}
	waited := time.Since(lostAt)
	close(stop)
	n := <-submitted
	if waited > limit {
		t.Fatalf("lost forward delivered after %v under continuous submissions, want within %v (%d TokenResend periods)",
			waited, limit, limit/resend)
	}

	deadline := time.Now().Add(5 * time.Second)
	for len(recA.snapshot()) < n || len(recB.snapshot()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d and %d of %d", len(recA.snapshot()), len(recB.snapshot()), n)
		}
		time.Sleep(time.Millisecond)
	}
	for _, r := range []*recorder{recA, recB} {
		for i, got := range r.snapshot()[:n] {
			if want := fmt.Sprintf("b/m-%04d", i); got != want {
				t.Fatalf("delivery %d = %q, want %q (submission order)", i, got, want)
			}
		}
	}
}

// TestNoRetransmissionRequestForDataInFlight delays the leader's data
// frames to one follower by less than a token rotation, losing none. The
// token reaches that follower before the data does, advertising sequence
// numbers it has not received yet; since requests stop at what a token
// advertised at least TokenResend/4 ago (25ms here), it must not ask for
// any of them.
func TestNoRetransmissionRequestForDataInFlight(t *testing.T) {
	net := simnet.New(simnet.Config{})
	// A slow token hop needs a token-loss timeout well above it.
	slowHop := func(tr Transport) Config {
		cfg := fastConfig(tr)
		cfg.TokenLossTimeout = 400 * time.Millisecond
		return cfg
	}
	procs := startRing(t, net, slowHop, "a", "b", "c")
	// The token runs a→b→c→a. Data from a reaches c 3ms late; the hop
	// c→a takes 25ms, so every token visit at c overtakes data that is
	// still in flight, and a rotation outlasts the data's delay by enough
	// that late timers cannot swap the two.
	net.SetLink("a", "c", simnet.LinkOverride{ExtraLatency: 3 * time.Millisecond})
	net.SetLink("c", "a", simnet.LinkOverride{ExtraLatency: 25 * time.Millisecond})
	time.Sleep(60 * time.Millisecond) // let tokens in flight settle on the new links
	before := make([]Stats, len(procs))
	for i, p := range procs {
		before[i] = p.Stats()
	}
	recC := record(procs[2], 1)
	const n = 40
	for i := range n {
		if err := procs[0].Multicast(fmt.Appendf(nil, "d-%02d", i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(recC.snapshot()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("c delivered %d of %d", len(recC.snapshot()), n)
		}
		time.Sleep(time.Millisecond)
	}
	for i, p := range procs {
		st := p.Stats()
		if r := st.Retransmits - before[i].Retransmits; r != 0 {
			t.Fatalf("%s retransmitted %d frames that were only delayed", p.Addr(), r)
		}
		if st.ViewChanges != before[i].ViewChanges {
			t.Fatalf("%s changed views", p.Addr())
		}
	}
}

// TestStaleFormIgnoredWhileGathering replays the representative's own
// form message for the ring it just lost, delivered late — after a token
// loss moved it into the gather phase. Installing it would reset the
// sequence space under a ring identity whose sequence numbers already
// carried messages; the processor must instead go on to form a newer ring.
func TestStaleFormIgnoredWhileGathering(t *testing.T) {
	net := simnet.New(simnet.Config{})
	rec := obs.NewRecorder(64, "a")
	var procs []*Processor
	for _, addr := range []string{"a", "b"} {
		ep, err := net.Join(addr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(NewSimnetTransport(ep))
		// A long stability wait holds "a" in the gather phase while the
		// stale form arrives.
		cfg.StableFor = 500 * time.Millisecond
		if addr == "a" {
			cfg.Recorder = rec
		}
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		procs = append(procs, p)
	}
	a := procs[0]
	v := awaitView(t, a, []string{"a", "b"}, 5*time.Second)
	procs[1].Stop()
	deadline := time.Now().Add(5 * time.Second)
	for !slices.ContainsFunc(rec.Since(0, 0), func(e obs.Event) bool { return e.Type == obs.EventTokenLoss }) {
		if time.Now().After(deadline) {
			t.Fatal("a never detected the token loss")
		}
		time.Sleep(time.Millisecond)
	}
	x, err := net.Join("x")
	if err != nil {
		t.Fatal(err)
	}
	stale := &formMsg{Ring: ringIdentity{Epoch: v.Epoch, Rep: "a"}, Members: []string{"a", "b"}, StartSeq: v.StartSeq}
	if err := x.Send("a", encodeMsg(stale)); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case got := <-a.Views():
			if got.Epoch <= v.Epoch {
				t.Fatalf("a re-installed a ring no newer than the one it left: %+v (left epoch %d)", got, v.Epoch)
			}
			if slices.Equal(got.Members, []string{"a"}) {
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a never formed its singleton ring")
		}
	}
}

// TestFollowerHoldsBackupReplies covers keyed replies (MulticastReply):
// a fast-path follower holds one back, drops it unsent when it is
// withdrawn, and otherwise forwards it once it has been held past a full
// rotation and rtrDelay — behind a message submitted after it. The leader
// never holds one back.
func TestFollowerHoldsBackupReplies(t *testing.T) {
	// A long hold (TokenResend/4 = 25ms) leaves the test time to withdraw.
	slowResend := func(tr Transport) Config {
		cfg := fastConfig(tr)
		cfg.TokenLossTimeout = 400 * time.Millisecond
		return cfg
	}
	procs := startRing(t, simnet.New(simnet.Config{}), slowResend, "a", "b")
	leader, follower := procs[0], procs[1]
	if leader.Leader() != "a" || follower.Leader() != "a" {
		t.Fatalf("leaders %q and %q, want a", leader.Leader(), follower.Leader())
	}
	recA, recB := record(leader, 16), record(follower, 16)
	await := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(recA.snapshot()) < n || len(recB.snapshot()) < n {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %v and %v, want %d each", recA.snapshot(), recB.snapshot(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	submit(follower.MulticastReply([]byte("withdrawn"), 0, 1))
	submit(follower.MulticastReply([]byte("released"), 0, 2))
	// Submissions are taken in order, so once this one is delivered both
	// replies are held.
	submit(follower.Multicast([]byte("plain")))
	await(1)
	follower.Withdraw(1)
	submit(leader.MulticastReply([]byte("leader"), 0, 3))
	leader.Withdraw(3)
	await(3)
	time.Sleep(100 * time.Millisecond) // four hold periods: nothing else comes
	want := []string{"b/plain", "a/leader", "b/released"}
	for _, r := range []*recorder{recA, recB} {
		if got := r.snapshot(); !slices.Equal(got, want) {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	if w := follower.Stats().Withdrawn; w != 1 {
		t.Fatalf("follower withdrew %d replies, want 1", w)
	}
	if w := leader.Stats().Withdrawn; w != 0 {
		t.Fatalf("leader withdrew %d replies, want 0", w)
	}
}
