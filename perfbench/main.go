// Command perfbench is the repository's benchmark: it runs one named
// workload against an in-process Eternal system on the simulated paper
// LAN, checks that every reply and the replicas' final states are
// correct, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload invoke-3way --seed 7 --seconds 15 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, gathered by
// timing the benchmark's own calls into each layer (spans written to
// <out>/trace-<workload>.json) and by reading the counters, span journal
// and flight recorder the program exposes. The line before it is the full
// result row, with run metadata and sample counts, and standard error
// holds a readable table. A failed correctness check prints the result
// with "correct": false and exits 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// runBudget bounds a whole run, so that a wedge the per-call timeouts do
// not catch still ends the process.
const runBudget = 170 * time.Second

// gcHeapLimit is the Go runtime memory at which the benchmark process
// collects garbage. The program's live heap varies from a few to tens of
// megabytes from one system to the next, and under the default pacing
// the collector's frequency follows it: 30 to 280 collections in the same
// five seconds of invoke-1way load, which moved its median latency between
// 26 and 41 µs. Collecting at a fixed size makes the collector's work
// follow the allocation volume instead.
const gcHeapLimit = 256 << 20

func main() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcHeapLimit)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+workloadNames())
	seed := fl.Int64("seed", 1, "seed for keys, payloads, state contents and recovery gaps")
	seconds := fl.Int("seconds", 15, "length of the measured window in seconds")
	trace := fl.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	out := fl.String("out", ".bench_build", "directory for the traced run's span file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	watchdog := time.AfterFunc(runBudget, func() {
		fmt.Fprintf(stderr, "perfbench: workload %s seed %d exceeded the %s run budget\n", w.name, *seed, runBudget)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: workload %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	res.print(stdout, stderr)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is one run's row.
type result struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Source     string            `json:"source_sha256"`
	InvN       int               `json:"inv_n"`
	RecoveryN  int               `json:"recovery_n"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
	Refused    []string          `json:"refused,omitempty"`
	Metrics    map[string]metric `json:"metrics"`

	printed []metric // the metrics of the last line, in order
	table   []metric // every metric, for the standard error table
}

func execute(w workload, seed int64, d time.Duration, traced bool, outDir string, stderr io.Writer) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	b := newBench(w, seed, tr)
	defer b.teardown()
	var ws []*window
	var setup []float64
	var errs []error
	for i := range rounds {
		if i > 0 {
			b.teardown()
			runtime.GC()
		}
		id := tr.id()
		start := time.Now()
		if err := b.setup(id); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		tr.add(tr.spanID(id, "setup", 0, 0, start, time.Now()))

		win, err := b.measure(d / rounds)
		if win == nil {
			return nil, err
		}
		if attempted, completed := invocations([]*window{win}); attempted > completed || win.recovery.failed > 0 {
			b.explainFailures(win, stderr)
		}
		errs = append(errs, err, win.recovery.err, b.checkCorrect(win))
		ws = append(ws, win)
	}
	cerr := errors.Join(errs...)
	attempted, completed := invocations(ws)
	var cycles, cyclesFailed, recoveries int
	for _, win := range ws {
		cycles += win.recovery.attempted
		cyclesFailed += win.recovery.failed
		recoveries += len(win.recovery.recover)
	}

	rep := newReport()
	rep.endToEnd(w, ws, setup)
	names := endToEndNames
	if traced {
		ladder, err := b.ladder(tr.id())
		if err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
		rep.perLayer(b, ws, ladder)
		names = perLayerNames
		for _, win := range ws {
			b.fileInvokeSpans(win.load)
		}
		path := filepath.Join(outDir, "trace-"+w.name+".json")
		if err := tr.write(path, map[string]any{"workload": w.name, "seed": seed}); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	res := &result{
		Workload: w.name, Why: w.why, Seed: seed, Trace: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: gitHead("."), Source: sourceDigest("."),
		InvN: completed, RecoveryN: recoveries,
		Correct:   cerr == nil,
		Attempted: attempted + cycles,
		Failed:    attempted - completed + cyclesFailed,
		Refused:   rep.refused,
		Metrics:   rep.byName,
		printed:   rep.pick(names),
		table:     rep.pick(append(slices.Clone(endToEndNames), perLayerNames...)),
	}
	if cerr != nil {
		for _, e := range strings.Split(cerr.Error(), "\n") {
			res.Errors = append(res.Errors, fmt.Sprintf("workload %s seed %d: %s", w.name, seed, e))
		}
	}
	if traced && len(res.printed) != len(perLayerNames) || !traced && len(res.printed) != len(endToEndNames) {
		return nil, fmt.Errorf("metric set incomplete: %d printed", len(res.printed))
	}
	return res, nil
}

// explainFailures prints what localised the two-way wedge: the medium's
// overruns and each node's view changes and deliveries over the window.
// The simulated medium counts overruns for the whole segment, not per
// node.
func (b *bench) explainFailures(w *window, stderr io.Writer) {
	now := b.snapshot()
	a := w.before
	fmt.Fprintf(stderr, "perfbench: workload %s seed %d: failures in the window; simnet overruns %d (of %d delivered), frames lost %d\n",
		b.w.name, b.seed, now.net.FramesOverrun-a.net.FramesOverrun, now.net.FramesDelivered-a.net.FramesDelivered,
		now.net.FramesLost-a.net.FramesLost)
	for _, n := range b.w.nodes() {
		fmt.Fprintf(stderr, "  %s: eternal_totem_view_changes_total +%.0f, eternal_totem_deliveries_total +%.0f, eternal_totem_packets_in_total +%.0f\n",
			n, promDelta(a, now, "eternal_totem_view_changes_total", n), promDelta(a, now, "eternal_totem_deliveries_total", n),
			promDelta(a, now, "eternal_totem_packets_in_total", n))
	}
	if w.recovery.err != nil {
		fmt.Fprintf(stderr, "  recovery loop: %v\n", w.recovery.err)
	}
}

// print writes the standard error table, the full row and, last, the
// result line the benchmark contract defines.
func (r *result) print(stdout, stderr io.Writer) {
	fmt.Fprintf(stderr, "workload %s seed %d trace %v: %d attempted, %d failed, correct %v (GOMAXPROCS %d, %s)\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct, r.GOMAXPROCS, r.GoVersion)
	for _, m := range r.table {
		fmt.Fprintf(stderr, "  %-40s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, s := range r.Refused {
		fmt.Fprintf(stderr, "  refused %s\n", s)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(stderr, "  FAILED %s\n", e)
	}
	row, _ := json.Marshal(r)
	fmt.Fprintln(stdout, string(row))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.printed))
	for _, m := range r.printed {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	last, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	fmt.Fprintln(stdout, string(last))
}

// gitHead returns the commit checked out at root, or "" when root is not
// a git work tree (the benchmark usually runs from a plain export).
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// sourceDigest hashes the Go sources and module files under root, which
// identifies the code under test when there is no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
