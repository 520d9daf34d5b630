package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"respeed/internal/detect"
	"respeed/internal/rngx"
	"respeed/internal/stats"
	"respeed/internal/trace"
	"respeed/internal/workload"
)

// Golden equivalence tests: every value below was pinned against the
// pre-engine simulators at fixed seeds, and the engine must reproduce
// each report bit-for-bit — makespans and energies are compared via
// Float64bits, traces via an FNV-64a hash of the JSONL encoding, so
// even a single reordered float operation or RNG draw shows up as a
// failure. Each case builds the engine configuration the historical
// simulator used: aggregate faults on one named stream, the metered
// recorder for full-stack runs, the summing recorder for pattern,
// two-level and per-node runs.

func wantBits(t *testing.T, name string, got float64, want string) {
	t.Helper()
	g := fmt.Sprintf("0x%016x", math.Float64bits(got))
	if g != want {
		t.Errorf("%s: got %s (%v), want %s", name, g, got, want)
	}
}

func wantInt(t *testing.T, name string, got, want int) {
	t.Helper()
	if got != want {
		t.Errorf("%s: got %d, want %d", name, got, want)
	}
}

func traceHash(t *testing.T, rec *trace.Recorder) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return uint64(detect.FNV64{}.Sum(buf.Bytes()))
}

// TestGoldenExec pins a full-stack run with both silent and fail-stop
// errors, tracing, checkpoint stats, and energy breakdown.
func TestGoldenExec(t *testing.T) {
	sc := execScenario(2e-3, 1e-3)
	sc.Trace = trace.New(0)
	rep, err := sc.RunOn(rngx.NewStream(100, "golden-exec"))
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "makespan", rep.Makespan, "0x40baefee430d6e35")
	wantBits(t, "energy", rep.Energy, "0x412c4e5783155bc3")
	wantBits(t, "breakdown.compute", rep.EnergyBreakdown.Compute, "0x411c4cc89fc45120")
	wantInt(t, "patterns", rep.Patterns, 10)
	wantInt(t, "attempts", rep.Attempts, 17)
	wantInt(t, "silentInjected", rep.SilentInjected, 3)
	wantInt(t, "silentDetected", rep.SilentDetected, 3)
	wantInt(t, "failStops", rep.FailStops, 4)
	if got := uint64(rep.StateDigest); got != 0x619331bc6e2290d7 {
		t.Errorf("digest: got 0x%016x", got)
	}
	wantInt(t, "ckpt.commits", rep.CkptStats.Commits, 11)
	wantInt(t, "ckpt.recoveries", rep.CkptStats.Recoveries, 7)
	wantInt(t, "ckpt.bytesWritten", int(rep.CkptStats.BytesWritten), 22704)
	wantInt(t, "ckpt.bytesRead", int(rep.CkptStats.BytesRead), 14448)
	wantInt(t, "trace.len", sc.Trace.Len(), 97)
	if got := traceHash(t, sc.Trace); got != 0x6f159d315cdaccf0 {
		t.Errorf("traceHash: got 0x%016x", got)
	}
}

// TestGoldenPartial pins a full-stack run with partial verifications
// plus a fail-stop process — sampled-check counts and detections
// included.
func TestGoldenPartial(t *testing.T) {
	sc := execScenario(3e-3, 5e-4)
	sc.Partial = &Partial{Segments: 4, Coverage: 0.7, Cost: 2}
	sc.Trace = trace.New(0)
	rep, err := sc.RunOn(rngx.NewStream(101, "golden-partial"))
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "makespan", rep.Makespan, "0x40ba79ab66c9c6f6")
	wantBits(t, "energy", rep.Energy, "0x412c43e394a48f75")
	wantInt(t, "patterns", rep.Patterns, 10)
	wantInt(t, "attempts", rep.Attempts, 16)
	wantInt(t, "silentInjected", rep.SilentInjected, 5)
	wantInt(t, "silentDetected", rep.SilentDetected, 5)
	wantInt(t, "failStops", rep.FailStops, 1)
	wantInt(t, "partialChecks", rep.PartialChecks, 43)
	wantInt(t, "partialDetections", rep.PartialDetections, 4)
	if got := uint64(rep.StateDigest); got != 0x619331bc6e2290d7 {
		t.Errorf("digest: got 0x%016x", got)
	}
	wantInt(t, "trace.len", sc.Trace.Len(), 172)
	if got := traceHash(t, sc.Trace); got != 0x5c1f060f2aacefb7 {
		t.Errorf("traceHash: got 0x%016x", got)
	}
}

// TestGoldenSkipVerification pins the blind-checkpoint path where an
// undetected SDC survives into the final digest.
func TestGoldenSkipVerification(t *testing.T) {
	sc := execScenario(2e-3, 0)
	sc.SkipVerification = true
	rep, err := sc.RunOn(rngx.NewStream(102, "golden-skip"))
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "makespan", rep.Makespan, "0x40b09a0000000000")
	wantBits(t, "energy", rep.Energy, "0x4118170800000000")
	wantInt(t, "patterns", rep.Patterns, 10)
	wantInt(t, "attempts", rep.Attempts, 10)
	wantInt(t, "silentInjected", rep.SilentInjected, 2)
	wantInt(t, "silentDetected", rep.SilentDetected, 0)
	if got := uint64(rep.StateDigest); got != 0x82032e3cc7bc9af5 {
		t.Errorf("digest: got 0x%016x", got)
	}
}

// TestGoldenTwoLevel pins a two-level run with memory and disk
// recoveries, frontier re-execution, and pattern-loss accounting.
func TestGoldenTwoLevel(t *testing.T) {
	sc := twoLevelScenario(1.5e-3, 2e-3, 4)
	rep, err := runTwoLevelApp(sc, twoLevelRunner(), rngx.NewStream(103, "golden-twolevel"))
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "makespan", rep.Makespan, "0x40d0e66189fbd9b1")
	wantBits(t, "energy", rep.Energy, "0x41502675935265ce")
	wantInt(t, "patterns", len(sc.patternSizes()), 20)
	wantInt(t, "executions", rep.Attempts, 81)
	wantInt(t, "memCommits", rep.MemCommits, 48)
	wantInt(t, "diskCommits", rep.DiskCommits, 5)
	wantInt(t, "silentErrors", rep.SilentInjected, 10)
	wantInt(t, "failStops", rep.FailStops, 23)
	wantInt(t, "memRecoveries", rep.MemRecoveries, 10)
	wantInt(t, "diskRecoveries", rep.DiskRecoveries, 23)
	wantInt(t, "patternsLost", rep.PatternsLost, 28)
	if got := uint64(rep.StateDigest); got != 0x424fdc774e77170f {
		t.Errorf("digest: got 0x%016x", got)
	}
}

// TestGoldenPattern pins the Monte-Carlo pattern estimator: Welford
// summaries over 500 replications and a traced 40-pattern run.
func TestGoldenPattern(t *testing.T) {
	model := testModel()

	costs := Costs{C: 6, V: 15.4, R: 30, LambdaS: 2.57e-4, LambdaF: 5e-5}
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	est, err := replicateSequential(plan, costs, model, rngx.NewStream(104, "golden-pattern"), 500)
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "time.mean", est.Time.Mean, "0x40ca3c967e8ad9f2")
	wantBits(t, "time.stddev", est.Time.StdDev, "0x40bd7044ac5d4b98")
	wantBits(t, "energy.mean", est.Energy.Mean, "0x415c6c81bfd389f2")
	wantBits(t, "timePerWork.mean", est.TimePerWork.Mean, "0x401370b0b6ad4600")
	wantBits(t, "energyPerWork.mean", est.EnergyPerWork.Mean, "0x40a50f90abc5dd21")
	wantBits(t, "meanAttempts", est.MeanAttempts, "0x400b374bc6a7ef9e")

	rec := trace.New(0)
	tracePlan := Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8}
	traceCosts := Costs{C: 6, V: 15.4, R: 30, LambdaS: 2e-3, LambdaF: 1e-3}
	s, err := aggregatePattern(tracePlan, traceCosts, model, rngx.NewStream(105, "golden-pattern-trace"), rec)
	if err != nil {
		t.Fatal(err)
	}
	var r PatternResult
	for i := 0; i < 40; i++ {
		r = s.RunPattern()
	}
	wantBits(t, "clock", s.Clock(), "0x40bfafd86230356f")
	wantBits(t, "energy", s.Energy(), "0x4140ab4f9da72b77")
	wantBits(t, "lastTime", r.Time, "0x4065300000000000")
	wantInt(t, "lastAttempts", r.Attempts, 1)
	wantInt(t, "trace.len", rec.Len(), 358)
	if got := traceHash(t, rec); got != 0xec87162a2d28a0f7 {
		t.Errorf("traceHash: got 0x%016x", got)
	}
}

// TestGoldenParallel pins the deterministic-in-(seed,n) chunked
// fan-out: the worker count must not change the result.
func TestGoldenParallel(t *testing.T) {
	costs := Costs{C: 6, V: 15.4, R: 30, LambdaS: 2.57e-3, LambdaF: 0}
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	est, err := ReplicatePatternParallelCtx(context.Background(), plan, costs, testModel(), 106, 700, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "time.mean", est.Time.Mean, "0x417718c09bd593c1")
	wantBits(t, "time.stddev", est.Time.StdDev, "0x41784aa409a7562e")
	wantBits(t, "energy.mean", est.Energy.Mean, "0x421318b8c2291601")
	wantBits(t, "meanAttempts", est.MeanAttempts, "0x40bafe3b9c869536")
}

// TestGoldenReplicateTwoLevel pins the per-replicate makespans on the
// "twolevel/%d" streams the disk-interval experiment draws from. The
// summing two-level App is the historical reference; the metered
// Scenario path the experiment runs must produce the same makespan bits
// on every run (the recorders differ only in how they sum energy), and
// a Welford mean over them must agree with the plain-sum mean.
func TestGoldenReplicateTwoLevel(t *testing.T) {
	sc := twoLevelScenario(5e-4, 2e-3, 4)
	sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewStream(9, 8)) }

	const n = 40
	var sum float64
	var mean stats.Welford
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("twolevel/%d", i)
		rep, err := runTwoLevelApp(sc, sc.NewWorkload(), rngx.NewStream(107, name))
		if err != nil {
			t.Fatal(err)
		}
		metered, err := sc.RunOn(rngx.NewStream(107, name))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(metered.Makespan) != math.Float64bits(rep.Makespan) {
			t.Errorf("run %d: scenario makespan %v, two-level app %v", i, metered.Makespan, rep.Makespan)
		}
		sum += rep.Makespan
		mean.Add(metered.Makespan)
	}
	wantBits(t, "sumMean", sum/n, "0x40c46b0b49ef531f")
	if rel := math.Abs(mean.Mean()-sum/n) / (sum / n); rel > 1e-12 {
		t.Errorf("aggregate mean: got %v, want %v (rel err %g)", mean.Mean(), sum/n, rel)
	}
}

// goldenClusterEngine is the per-node pattern engine of the cluster
// goldens: four uniform nodes at Hera's silent rate ×150 plus a small
// fail-stop rate, on the historical "cluster" streams.
func goldenClusterEngine(t *testing.T, seed uint64) (*PatternEngine, *PerNodeFaults) {
	t.Helper()
	c := heraCluster(4, 150)
	nodes := UniformNodes(4, c.nodes[0].SilentRate*4, 2e-5)
	eng, fp, err := clusterEngine(nodes, c.plan, c.costs, c.model, seed)
	if err != nil {
		t.Fatal(err)
	}
	return eng, fp
}

func TestGoldenClusterSim(t *testing.T) {
	eng, fp := goldenClusterEngine(t, 200)
	attempts, silent, failStops := 0, 0, 0
	for i := 0; i < 300; i++ {
		r := eng.RunPattern()
		attempts += r.Attempts
		silent += r.SilentErrors
		failStops += r.FailStopErrors
	}
	wantBits(t, "clock", eng.Clock(), "0x41605c8b69f60017")
	wantBits(t, "energy", eng.Energy(), "0x41f46254e9a5201d")
	if attempts != 2089 || silent != 1620 || failStops != 169 {
		t.Errorf("counters: attempts %d silent %d failStops %d", attempts, silent, failStops)
	}
	perNode := fp.PerNodeErrors()
	for i, w := range []int{463, 444, 445, 437} {
		if perNode[i] != w {
			t.Errorf("perNode[%d]: got %d, want %d", i, perNode[i], w)
		}
	}
}

func TestGoldenClusterReplicate(t *testing.T) {
	eng, _ := goldenClusterEngine(t, 201)
	est, err := ReplicatePattern(eng, 2764, 300)
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "time.mean", est.Time.Mean, "0x40dc3252b336c955")
	wantBits(t, "time.stddev", est.Time.StdDev, "0x40d27e18758ba316")
	wantBits(t, "energy.mean", est.Energy.Mean, "0x41719df7294d4553")
	wantBits(t, "meanAttempts", est.MeanAttempts, "0x401c0a3d70a3d70a")
}
