package eternal_test

import (
	"fmt"
	"testing"
	"time"

	"eternal"
	"eternal/internal/totem"
)

// pacedSystem builds a system with explicit totem pacing knobs — larger
// ticks than fastSystem so pacing windows and wake-up latencies are
// measurable against scheduler noise.
func pacedSystem(t *testing.T, tick time.Duration, fp totem.FastPathMode, audit time.Duration, nodes ...string) *eternal.System {
	t.Helper()
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Totem: totem.Config{
			TokenLossTimeout: 100 * tick,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        20 * time.Millisecond,
			Tick:             tick,
			FastPath:         fp,
		},
		ManagerTick:    10 * time.Millisecond,
		AuditInterval:  audit,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	sys.RegisterFactory("Register", func(oid string) eternal.Replica { return &register{} })
	return sys
}

// TestAuditKeepsIdleRingPaced proves the background-traffic invariant at
// the system level: with the consistency audit running every 50ms on an
// otherwise idle domain, audit epochs keep advancing on every node while
// the token stays paced — the marks ride the paced token instead of
// resetting its idle counter.
func TestAuditKeepsIdleRingPaced(t *testing.T) {
	const auditInterval = 50 * time.Millisecond
	sys := pacedSystem(t, time.Millisecond, totem.FastPathOff, auditInterval, "n1", "n2")
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "reg", TypeName: "Register",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1},
		Nodes: []string{"n1", "n2"},
	}); err != nil {
		t.Fatal(err)
	}
	cl, err := sys.Client("n1", "driver")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	obj, err := cl.Resolve("reg")
	if err != nil {
		t.Fatal(err)
	}
	setVal(t, obj, "seed")

	// Let the post-write grace expire and pacing engage.
	time.Sleep(100 * time.Millisecond)

	n1 := sys.Node("n1")
	holds := n1.Metrics().FindHistogram("eternal_totem_token_hold_seconds")
	if holds == nil {
		t.Fatal("totem token metrics not registered")
	}
	s1, ok := n1.AuditSummary()
	if !ok {
		t.Fatal("audit disabled on n1")
	}
	visits1 := holds.Count()
	time.Sleep(500 * time.Millisecond)
	visits2 := holds.Count()
	s2, _ := n1.AuditSummary()

	// ~10 audit epochs passed. The audit must have progressed...
	if s2.LastEpoch <= s1.LastEpoch || s2.Observations <= s1.Observations {
		t.Fatalf("audit stalled while idle: %+v -> %+v", s1, s2)
	}
	if s2.Diverged || s2.Divergences+s2.Lags+s2.Stalls > 0 {
		t.Fatalf("audit alarms on an idle ring: %+v", s2)
	}
	// ...and the ring must have stayed paced: a 2-member paced rotation
	// costs >= 2 ticks (2ms), so 500ms fits ~250 visits plus slack for
	// the post-epoch activity bursts. An un-paced ring would log tens of
	// thousands.
	if visits := visits2 - visits1; visits > 3000 {
		t.Fatalf("token visited n1 %d times in 500ms: audit traffic keeps the ring spinning", visits)
	}
	var sawPaced bool
	for _, r := range n1.TokenRotations(0) {
		if r.Paced && r.PaceTicks > 0 {
			sawPaced = true
			break
		}
	}
	if !sawPaced {
		t.Fatal("no paced token visits while idle under audit traffic")
	}
}

// TestFirstInvocationAfterIdleLatency is the regression guard for the
// idle-wakeup cliff: after the ring has gone fully idle (deep pacing at
// a 20ms tick), the next invocation must not wait out the pacing backoff
// — the hurry nudge (classic path) or the leader fast path keeps it
// orders of magnitude below the worst-case parked rotation.
func TestFirstInvocationAfterIdleLatency(t *testing.T) {
	for _, tc := range []struct {
		name string
		fp   totem.FastPathMode
	}{
		{"classic-hurry", totem.FastPathOff},
		{"fast-path", totem.FastPathAuto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const tick = 20 * time.Millisecond
			sys := pacedSystem(t, tick, tc.fp, -1, "n1", "n2")
			if err := sys.CreateGroup(eternal.GroupSpec{
				Name: "reg", TypeName: "Register",
				Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1},
				Nodes: []string{"n1", "n2"},
			}); err != nil {
				t.Fatal(err)
			}
			cl, err := sys.Client("n2", "driver")
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			obj, err := cl.Resolve("reg")
			if err != nil {
				t.Fatal(err)
			}
			setVal(t, obj, "warm")
			// Deep idle: several fully paced rotations at up to
			// MaxPaceTicks×tick = 80ms per hop.
			time.Sleep(600 * time.Millisecond)

			start := time.Now()
			setVal(t, obj, "wake")
			elapsed := time.Since(start)
			// A single fully paced 2-member rotation is up to 320ms; an
			// invocation needs request and reply rounds, so an un-nudged
			// stack pays most of a rotation. 150ms proves the wake path
			// short-circuited pacing with a wide scheduler margin.
			if elapsed > 150*time.Millisecond {
				t.Fatalf("first invocation after idle took %v (%s)", elapsed, tc.name)
			}
		})
	}
}

// TestFastPathFallbackKillRecoverAuditClean is the chaos case for the
// leader fast path (the default on the 4-member ring): a replica
// kill/recover pushes a state transfer through leader-ordered
// sequencing, then crashing the leader node itself forces the fallback
// — the survivors reform under a new leader and keep writing, including
// another full state transfer. At the end, every acknowledged write is
// present in order and the audit record is spotless on every surviving
// node: the speculative leader ordering never produced divergence.
func TestFastPathFallbackKillRecoverAuditClean(t *testing.T) {
	const auditInterval = 100 * time.Millisecond
	sys := pacedSystem(t, time.Millisecond, totem.FastPathAuto, auditInterval, "c1", "c2", "c3", "c4")
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "reg", TypeName: "Register",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 2},
		Nodes: []string{"c1", "c2", "c3"},
	}); err != nil {
		t.Fatal(err)
	}
	// The client lives on c4: every write crosses the forward path while
	// c1 (the representative) leads the ring.
	cl, err := sys.Client("c4", "chaos-driver")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	obj, err := cl.Resolve("reg")
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	write := func(i int) {
		v := fmt.Sprintf("w%03d", i)
		e := eternal.NewEncoder(eternal.BigEndian)
		e.WriteString(v)
		if _, err := obj.InvokeTimeout("set", e.Bytes(), 20*time.Second); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		acked = append(acked, v)
	}
	for i := 0; i < 10; i++ {
		write(i)
	}

	// Replica kill/recover on c2 with writes in between: the recovery
	// state transfer (KAddMember marker, manifest, chunks) is sequenced
	// by the fast-path leader.
	if err := sys.Node("c2").KillReplica("reg", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		write(i)
	}
	if err := sys.Node("c2").RecoverReplica("reg", 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash the leader node mid-stream. The survivors reform under c2,
	// the fast path re-elects, and acknowledged writes survive the
	// transition.
	sys.CrashNode("c1")
	for i := 20; i < 30; i++ {
		write(i)
	}

	// Another replica kill/recover, now under the re-elected leader: the
	// state transfer crosses the new forward path.
	if err := sys.Node("c3").KillReplica("reg", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 35; i++ {
		write(i)
	}
	if err := sys.Node("c3").RecoverReplica("reg", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 35; i < 40; i++ {
		write(i)
	}

	hs := history(t, obj)
	if len(hs) != len(acked) {
		t.Fatalf("history has %d writes, acked %d: %v", len(hs), len(acked), hs)
	}
	for i := range acked {
		if hs[i] != acked[i] {
			t.Fatalf("history[%d] = %q, want %q", i, hs[i], acked[i])
		}
	}

	// Several audit epochs (and the stall sweep) after the last fault:
	// zero divergence on every surviving node.
	time.Sleep(12 * auditInterval)
	for _, nd := range []string{"c2", "c3", "c4"} {
		s, ok := sys.Node(nd).AuditSummary()
		if !ok {
			t.Fatalf("audit disabled on %s", nd)
		}
		if s.Diverged || s.Divergences+s.Lags+s.Stalls > 0 {
			t.Fatalf("%s raised alarms across fast-path fallback: %+v (alarms %+v)",
				nd, s, sys.Node(nd).AuditAlarms(0, 0))
		}
		if s.Observations == 0 {
			t.Fatalf("%s collected no audits: %+v", nd, s)
		}
	}
}
