package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"eternal"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// workload is one named traffic shape. Every workload runs on the
// simulated paper LAN with the totem and system settings of the repo's
// testing.B benchmarks; the ordering mode, spans and audit stay at their
// defaults.
type workload struct {
	name string
	why  string
	// replicas is both the ring size and the active group's replica count
	// (nodes n1..nN, one replica each).
	replicas int
	// clients names the node each client attaches to: one closed-loop
	// client per entry, or the single open-loop client when openRate > 0.
	clients []string
	// openRate is the open-loop client's fixed rate in invocations/s.
	openRate int
	// stateBytes sizes the seeded application-state blob.
	stateBytes int
	// recover runs the kill/recover loop on the last node's replica.
	recover bool
}

var workloads = []workload{
	{
		name:     "invoke-1way",
		why:      "Single-node baseline (paper §6): the invocation path (cdr, giop, orb, interceptor, envelope, dispatch) does almost all the work; totem only self-delivers.",
		replicas: 1, clients: []string{"n1"},
	},
	{
		name:     "invoke-2way",
		why:      "The default leader fast path's own workload: leader sequencing plus follower forwarding, one leader-local and one follower client.",
		replicas: 2, clients: []string{"n1", "n2"},
	},
	{
		name:     "invoke-3way",
		why:      "The paper's E2 configuration, bound by classic token rotation (the fast path is off above 2 members). invoke-2way is left out: the default 2-member fast path wedges under load.",
		replicas: 3, clients: []string{"n1", "n2"},
	},
	{
		name:     "recover-3way",
		why:      "Kill/recover of a 1 MiB replica in a loop under a 500 inv/s open-loop foreground: capture, chunking, transfer, assembly and replay do most of the work.",
		replicas: 3, clients: []string{"n1"}, openRate: 500,
		stateBytes: 1 << 20, recover: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sampleRate sizes each client's sample buffers, in calls per second: the
// open-loop rate, or for a closed loop a ceiling well above today's rates.
func (w workload) sampleRate() int {
	if w.openRate > 0 {
		return w.openRate
	}
	return 40_000
}

func (w workload) nodes() []string {
	out := make([]string, w.replicas)
	for i := range out {
		out[i] = fmt.Sprintf("n%d", i+1)
	}
	return out
}

const (
	payloadBytes  = 64
	keysPerClient = 16
	// opsPerClient is the length of each client's pre-encoded operation
	// ring; clients cycle through it, so argument encoding stays out of
	// the measured loop.
	opsPerClient = 4096
	// recoveryGaps is the length of the seeded gap sequence between
	// kill/recover cycles.
	recoveryGaps = 256
)

// op is one pre-encoded add(key, payload) invocation.
type op struct {
	key     int
	name    string // the key's name
	payload []byte
	args    []byte
}

// inputs is everything the seed decides: keys, payload bytes, the state
// blob and the gaps between recovery cycles.
type inputs struct {
	blob []byte
	ops  [][]op // per client
	gaps []time.Duration
}

func keyName(client, key int) string { return fmt.Sprintf("c%d-k%02d", client, key) }

func makeInputs(w workload, seed int64) inputs {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	in := inputs{blob: make([]byte, w.stateBytes)}
	for i := range in.blob {
		in.blob[i] = byte(rng.Uint32())
	}
	in.ops = make([][]op, len(w.clients))
	for c := range in.ops {
		ops := make([]op, opsPerClient)
		for i := range ops {
			k := rng.IntN(keysPerClient)
			p := make([]byte, payloadBytes)
			for j := range p {
				p[j] = byte(rng.Uint32())
			}
			e := eternal.NewEncoder(eternal.BigEndian)
			e.WriteString(keyName(c, k))
			e.WriteOctetSeq(p)
			ops[i] = op{key: k, name: keyName(c, k), payload: p, args: e.Bytes()}
		}
		in.ops[c] = ops
	}
	if w.recover {
		in.gaps = make([]time.Duration, recoveryGaps)
		for i := range in.gaps {
			in.gaps[i] = 200*time.Millisecond + time.Duration(rng.Int64N(int64(200*time.Millisecond)))
		}
	}
	return in
}

// paperLAN is the paper's testbed medium: 100 Mbps shared Ethernet,
// 1518-byte frames, 50 µs propagation.
func paperLAN() simnet.Config {
	return simnet.Config{
		BandwidthBps: 100_000_000,
		Latency:      50 * time.Microsecond,
		MTU:          simnet.EthernetMTU,
	}
}

// benchTotem is the totem configuration of the repo's testing.B
// benchmarks.
func benchTotem() totem.Config {
	return totem.Config{
		TokenLossTimeout: 200 * time.Millisecond,
		JoinInterval:     10 * time.Millisecond,
		StableFor:        20 * time.Millisecond,
		Tick:             time.Millisecond,
	}
}
