// Command e2ebench is respeed's end-to-end benchmark. It builds the
// real system in-process — a serve.Server behind a loopback listener, a
// jobs.Manager journaling to a fresh fsynced directory, and a
// fleet.Coordinator dispatching shards to two in-process worker daemons
// — and drives one closed-loop workload generated from --seed for
// --seconds, checking every answer.
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// runs the same workload at the same seed with spans around the calls
// into each layer's public functions, and prints the per-layer metrics.
// The last line of standard output is always the JSON result; progress
// and a human-readable summary go to standard error.
//
// Run it through run.sh, which builds it from the surrounding checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupProbes is how many cold set-ups each side of an untraced run's
// window times, each in a fresh child process of this binary; setup_s
// is the median of those 2×setupProbes and the run's own set-up, all
// cold starts whose process-wide memos, pools and connections begin
// empty. On a shared host, load comes in bursts of a few seconds that
// slow every set-up inside them, so the probes are split across the
// window, tens of seconds apart, rather than run back to back.
const setupProbes = 4

// bench is the state shared by every workload.
type bench struct {
	seed uint64
	root string  // per-run directory for journals
	tr   *tracer // nil when untraced
}

// traffic is one workload: a traffic mix and its checks.
type traffic interface {
	// clients is the closed loop's client count (at most nproc).
	clients() int
	// warmup drives the warm-up ops, from a seed stream of their own,
	// until caches, pools and connections are in steady state.
	warmup(sys *system) error
	// op issues op k of client c, waits for its answer and checks it.
	op(sys *system, c, k int) outcome
	// verify runs the sampled checks once the window has closed and
	// returns how many answers they found wrong.
	verify() (wrong int64, err error)
	// layers derives the per-layer metrics of a traced run.
	layers(sys *system, w window, before, after *snapshot) (map[string]metric, error)
}

func main() {
	name := flag.String("workload", "", "workload to run: plan, simulate or campaign")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	build := flag.String("build", ".bench_build", "directory for journals and trace files")
	probe := flag.Bool("setup-probe", false, "only time one cold set-up, print its seconds and exit")
	flag.Parse()
	var err error
	if *probe {
		err = probeOnce(*name, *seed, *build)
	} else {
		err = run(*name, *seed, *seconds, *trace == 1, *build)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

// prepare makes the per-run directory and the workload's inputs.
// Input generation is not part of set-up time.
func prepare(name string, seed uint64, traced bool, build string) (*bench, traffic, error) {
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, nil, err
	}
	root, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, nil, err
	}
	b := &bench{seed: seed, root: root}
	if traced {
		b.tr = newTracer()
	}
	var wl traffic
	switch name {
	case "plan":
		wl, err = newPlan(b)
	case "simulate":
		wl, err = newSimulate(b)
	case "campaign":
		wl, err = newCampaign(b)
	default:
		err = fmt.Errorf("unknown --workload %q (plan, simulate, campaign)", name)
	}
	if err != nil {
		os.RemoveAll(root)
		return nil, nil, err
	}
	return b, wl, nil
}

// setUp constructs the system and runs the workload's warm-up, and
// returns the seconds both took.
func setUp(b *bench, wl traffic) (*system, float64, error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := newSystem(b.root, wl.clients(), b.tr)
	if err != nil {
		return nil, 0, err
	}
	if err := wl.warmup(sys); err != nil {
		sys.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return sys, time.Since(t0).Seconds(), nil
}

// probeOnce is a child process's whole run: one cold set-up, its
// seconds printed on standard output.
func probeOnce(name string, seed uint64, build string) error {
	b, wl, err := prepare(name, seed, false, build)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.root)
	sys, d, err := setUp(b, wl)
	if err != nil {
		return err
	}
	if err := sys.close(); err != nil {
		return err
	}
	fmt.Println(strconv.FormatFloat(d, 'g', -1, 64))
	return nil
}

// probeSetup times n cold set-ups, each in a fresh child process of
// this binary, one after another.
func probeSetup(n int, name string, seed uint64, build string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--build", build, "--setup-probe")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe %d: %w", i+1, err)
		}
		d, err := strconv.ParseFloat(strings.TrimSpace(string(stdout)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe %d printed %q", i+1, stdout)
		}
		out = append(out, d)
	}
	return out, nil
}

func run(name string, seed uint64, seconds int, traced bool, build string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	b, wl, err := prepare(name, seed, traced, build)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.root)
	var setup []float64
	if !traced {
		if setup, err = probeSetup(setupProbes, name, seed, build); err != nil {
			return err
		}
	}
	sys, d, err := setUp(b, wl)
	if err != nil {
		return err
	}
	setup = append(setup, d)
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	before, err := takeSnapshot(sys)
	if err != nil {
		return err
	}
	w := closedLoop(wl.clients(), seconds, func(c, k int) outcome { return wl.op(sys, c, k) })
	after, err := takeSnapshot(sys)
	if err != nil {
		return err
	}
	wrong, err := wl.verify()
	if err != nil {
		return err
	}
	res := result{
		Correct:   w.wrong == 0 && wrong == 0,
		Attempted: w.attempted,
		Failed:    w.failed + wrong,
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: %d ops in %.2fs, %d failed, %d wrong in the window, %d wrong in sampled checks\n",
		name, seed, w.attempted, w.elapsed.Seconds(), w.failed, w.wrong, wrong)
	if traced {
		res.Metrics, err = wl.layers(sys, w, before, after)
		if err != nil {
			return err
		}
		sorted := append([]time.Duration(nil), w.lat...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		res.Metrics["latency_p99_ms"] = metric{float64(quantile(sorted, 0.99)) / 1e6, "ms"}
		path := filepath.Join(build, "trace-"+name+".jsonl")
		if err := b.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spans: %d kept, %d dropped, written to %s\n", len(b.tr.spans), b.tr.dropped, path)
	}
	if err := sys.close(); err != nil {
		return err
	}
	sys = nil
	if !traced {
		later, err := probeSetup(setupProbes, name, seed, build)
		if err != nil {
			return err
		}
		setup = append(setup, later...)
		fmt.Fprintf(os.Stderr, "set-ups (s; children, this run's own, children after the window): %.3f\n", setup)
		res.Metrics, err = endToEnd(w, setup)
		if err != nil {
			return err
		}
		printSlices(w)
	}
	printSummary(res)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printSummary writes the metrics one per line to standard error.
func printSummary(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-38s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// printSlices writes each slice's op count, p50, CPU per op and the
// share of the machine's CPU time the hypervisor stole in it to
// standard error as one JSON line. Steal is a diagnostic only: on a
// shared host it explains a slow run, and no metric is adjusted by it.
func printSlices(w window) {
	var d struct {
		Ops   []int     `json:"ops"`
		P50ms []float64 `json:"p50_ms"`
		CPUms []float64 `json:"cpu_ms_per_op"`
		Steal []float64 `json:"steal"`
	}
	for _, s := range w.slices {
		sorted := append([]time.Duration(nil), s.lat...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		d.Ops = append(d.Ops, len(s.lat))
		d.P50ms = append(d.P50ms, float64(quantile(sorted, 0.5))/1e6)
		cpu := 0.0
		if len(s.lat) > 0 {
			cpu = float64(s.cpu) / 1e6 / float64(len(s.lat))
		}
		d.CPUms = append(d.CPUms, cpu)
		d.Steal = append(d.Steal, s.steal)
	}
	out, err := json.Marshal(d)
	if err != nil {
		return // a diagnostic line only; the result does not depend on it
	}
	fmt.Fprintf(os.Stderr, "slices %s\n", out)
	fmt.Fprintf(os.Stderr, "median steal %.3f\n", median(d.Steal))
}
