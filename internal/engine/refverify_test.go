package engine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"respeed/internal/detect"
	"respeed/internal/energy"
	"respeed/internal/trace"
	"respeed/internal/workload"
)

// The App verifies each pattern against a clean reference trajectory
// stepped once (newReference): the clean states, or their digests
// above maxReferenceBytes. Before that it advanced,
// serialized and digested a clean replica in lockstep with every run.
// This file keeps that live-replica discipline as the reference
// implementation and requires the two to agree on every report, float
// bits included, and on the verifier's check and detection counts,
// across every scenario composition the catalog exercises — on the
// single-run path (NewApp), the pooled per-run path, the fan-out and
// the chunk entry point.

// legacyMode turns an App into its pre-reference form: a live clean
// replica, no reference trajectory. The tiers roll the replica back
// alongside the workload whenever it is set.
func legacyMode(x *App) *App {
	if x.replica == nil {
		x.replica = x.main.clone()
	}
	x.ref = nil
	return x
}

// legacyRun is App.Run as it was with the live replica: both copies
// advance in lockstep, verification digests both, and blind mode keeps
// the replica synchronized with the corrupted truth. Partial attempts
// always used the replica and still do, so they delegate to
// attemptPartial.
func legacyRun(x *App) (Report, error) {
	rep, err := legacyRunBody(x)
	rep.PerNodeErrors = x.perNodeErrors()
	return rep, err
}

// legacyRunBody is legacyRun without the per-node error counts.
func legacyRunBody(x *App) (Report, error) {
	if err := x.cfg.Tier.Init(x); err != nil {
		return x.finish(), err
	}

	pattern, attempt := 0, 0
	errored := false // current pattern already failed at least once
	started := -1    // last pattern a PatternStart was emitted for

	for pattern < len(x.cfg.Sizes) {
		w := x.cfg.Sizes[pattern]
		if pattern != started {
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.PatternStart, Pattern: pattern})
			started = pattern
			attempt = 0
		}
		x.rep.Attempts++
		sigma := x.cfg.Plan.Sigma1
		if errored || x.cfg.Tier.Redo(pattern) {
			sigma = x.cfg.Plan.Sigma2
		}
		computeDur := w / sigma
		verifyDur := x.cfg.Verify / sigma

		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.ComputeStart, Pattern: pattern, Attempt: attempt, Speed: sigma})

		if x.cfg.Partial != nil {
			committed, resume, err := x.attemptPartial(pattern, attempt, w, sigma)
			if err != nil {
				return x.finish(), err
			}
			if committed {
				x.rep.Patterns++
				pattern++
				errored = false
				continue
			}
			pattern, attempt, errored = resume, attempt+1, true
			continue
		}

		// Fail-stop errors can strike anywhere in compute+verify.
		out := x.cfg.Faults.SampleWindow(x.rec.Clock(), computeDur+verifyDur, computeDur)
		if out.FailStop {
			x.rec.Advance(out.FailStopAt, energy.Compute, sigma)
			x.rep.FailStops++
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.FailStop, Pattern: pattern, Attempt: attempt, Speed: sigma})
			resume, err := x.cfg.Tier.OnFailStop(x, pattern)
			if err != nil {
				return x.finish(), err
			}
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Recovery, Pattern: pattern, Attempt: attempt})
			pattern, attempt, errored = resume, attempt+1, true
			continue
		}

		// Advance BOTH the main workload and the clean replica by the
		// same work; then possibly corrupt the main state. The replica
		// is the verification reference — the "application-specific
		// check" the paper abstracts as V.
		x.main.advance(w)
		x.replica.advance(w)
		if out.Silent {
			if err := x.injectSDC(); err != nil {
				return x.finish(), err
			}
			x.rep.SilentInjected++
		}
		x.rec.Advance(computeDur, energy.Compute, sigma)
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.ComputeEnd, Pattern: pattern, Attempt: attempt, Speed: sigma})

		if x.cfg.SkipVerification {
			// Blind checkpoint: the corruption (if any) is committed.
			// The tier's verified-commit discipline is deliberately
			// subverted — that is the hazard under study.
			if err := x.cfg.Tier.Commit(x, pattern, attempt); err != nil {
				return x.finish(), err
			}
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.PatternDone, Pattern: pattern, Attempt: attempt})
			if out.Silent {
				// Keep the replica in lockstep with the now-corrupted
				// truth so later digests compare whole-run outcomes.
				if err := x.replica.restore(x.main.state()); err != nil {
					return x.finish(), fmt.Errorf("engine: replica sync: %w", err)
				}
			}
			x.rep.Patterns++
			pattern++
			errored = false
			continue
		}

		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyStart, Pattern: pattern, Attempt: attempt, Speed: sigma})
		x.rec.Advance(verifyDur, energy.Verify, sigma)
		if !x.verifier.Verify(x.main.state(), x.replica.state()) {
			x.rep.SilentDetected++
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyFail, Pattern: pattern, Attempt: attempt, Detail: "digest mismatch"})
			resume, err := x.cfg.Tier.OnVerifyFail(x, pattern)
			if err != nil {
				return x.finish(), err
			}
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Recovery, Pattern: pattern, Attempt: attempt})
			pattern, attempt, errored = resume, attempt+1, true
			continue
		}
		if out.Silent {
			// A flip that verification cannot see would poison the next
			// checkpoint: fail loudly, this must be impossible with a
			// sound detector over differing states.
			return x.finish(), fmt.Errorf("engine: injected SDC escaped verification (pattern %d)", pattern)
		}
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyOK, Pattern: pattern, Attempt: attempt})

		if err := x.cfg.Tier.Commit(x, pattern, attempt); err != nil {
			return x.finish(), err
		}
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.PatternDone, Pattern: pattern, Attempt: attempt})
		x.rep.Patterns++
		pattern++
		errored = false
	}

	return x.finish(), nil
}

// sameBits reports whether two values are equal with every float
// compared by its bits (%#v prints the shortest exact representation,
// so -0 and +0, which == conflates, differ).
func sameBits(a, b any) bool {
	return reflect.DeepEqual(a, b) && fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// maxVerifyFails bounds the verification failures one guarded run may
// take. The catalog compositions fail a handful of times per run; a
// verification that can never pass (a misaligned reference) would
// otherwise retry its pattern forever.
const maxVerifyFails = 1000

type runaway struct{}

// guardSink returns a trace sink that aborts a run past maxVerifyFails.
func guardSink() func(trace.Event) {
	fails := 0
	return func(e trace.Event) {
		if e.Kind == trace.VerifyFail {
			if fails++; fails > maxVerifyFails {
				panic(runaway{})
			}
		}
	}
}

// guarded runs fn, failing the test instead of hanging when a guard
// sink aborts a run.
func guarded(t *testing.T, what string, fn func() (Report, error)) (Report, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(runaway); ok {
				t.Fatalf("%s: more than %d verification failures in one run: verification never passes", what, maxVerifyFails)
			}
			panic(r)
		}
	}()
	return fn()
}

// verifierCounts is what a run's verifiers counted.
type verifierCounts struct{ checks, detections, sampledChecks, sampledDetections int }

func countsOf(x *App) verifierCounts {
	c := verifierCounts{checks: x.verifier.Checks(), detections: x.verifier.Detections()}
	if x.cfg.Sampled != nil {
		c.sampledChecks, c.sampledDetections = x.cfg.Sampled.Checks(), x.cfg.Sampled.Detections()
	}
	return c
}

// legacyReport runs replication i of sc the live-replica way, on a
// fresh App under the historical stream prefix.
func legacyReport(t *testing.T, sc Scenario, seed uint64, i int, sizes []float64) (Report, verifierCounts) {
	t.Helper()
	sc.Obs.TraceSink = guardSink()
	x, err := freshApp(sc, seed, "scenario/"+strconv.Itoa(i), sizes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := guarded(t, "legacy run", func() (Report, error) { return legacyRun(legacyMode(x)) })
	if err != nil {
		t.Fatalf("legacy run %d: %v", i, err)
	}
	return rep, countsOf(x)
}

// TestRunnerSerializesOncePerMutation pins the serialization cache:
// State runs at most once between mutations, so a verification digest,
// the checkpoint commits after it and the final report digest share one
// serialization, and every advance or restore invalidates it.
func TestRunnerSerializesOncePerMutation(t *testing.T) {
	w := workload.NewStream(7, 64)
	serialized := 0
	r := NewRunner(w.Name(), w.Advance, w.Progress,
		func() []byte { serialized++; return w.State() }, w.Restore, nil)
	snap := append([]byte(nil), r.state()...)
	r.state()
	if serialized != 1 {
		t.Fatalf("two reads without a mutation serialized %d times, want 1", serialized)
	}
	r.advance(3)
	if got := r.state(); bytes.Equal(got, snap) {
		t.Fatal("state after advance still shows the pre-advance bytes")
	}
	r.state()
	if err := r.restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := r.state(); !bytes.Equal(got, snap) {
		t.Fatal("state after restore does not show the restored bytes")
	}
	if serialized != 3 {
		t.Fatalf("serialized %d times over two mutations, want 3", serialized)
	}
}

// panicDetector fails a test that takes a digest where none is due.
type panicDetector struct{}

func (panicDetector) Name() string { return "panic" }

func (panicDetector) Sum([]byte) detect.Digest {
	panic("engine test: digest taken from a stored reference state")
}

// TestReferenceStepsOncePerPattern pins the reference trajectory to the
// App's granularity: one advance per pattern, entry k the state after
// sizes[0..k]. Stored states take no digest; a trajectory above
// maxReferenceBytes, or of a state that changes length, holds the
// digests instead and no states.
func TestReferenceStepsOncePerPattern(t *testing.T) {
	sizes := PatternSizes(333.3, 47.5)
	mk := func() *Runner { return FromWorkload(workload.NewHeat(64, 0.2)) }
	ref := newReference(mk(), sizes, panicDetector{})
	if ref.stride == 0 || len(ref.states) != len(sizes)*ref.stride || len(ref.digests) != 0 {
		t.Fatalf("%d patterns stored as %d bytes at stride %d and %d digests", len(sizes), len(ref.states), ref.stride, len(ref.digests))
	}
	w := mk()
	for k, size := range sizes {
		w.advance(size)
		if !bytes.Equal(ref.state(k), w.state()) {
			t.Fatalf("entry %d is not the state after sizes[0..%d]", k, k)
		}
	}

	// Digest forms: a trajectory over the cap (100 patterns of a
	// 48,016-byte state), and a state that grows at the third pattern.
	growing := func() *Runner {
		w := workload.NewStream(7, 64)
		advances := 0
		return NewRunner("growing", func(u float64) { w.Advance(u); advances++ }, w.Progress,
			func() []byte { return append(w.State(), make([]byte, advances/3)...) }, nil, nil)
	}
	for _, tc := range []struct {
		name  string
		mk    func() *Runner
		sizes []float64
	}{
		{"above-cap", func() *Runner { return FromWorkload(workload.NewHeat(6000, 0.2)) }, PatternSizes(100, 1)},
		{"growing-state", growing, PatternSizes(10, 1)},
	} {
		ref := newReference(tc.mk(), tc.sizes, detect.FNV64{})
		if ref.stride != 0 || ref.states != nil || len(ref.digests) != len(tc.sizes) {
			t.Fatalf("%s: %d patterns kept at stride %d with %d digests, want digests only", tc.name, len(tc.sizes), ref.stride, len(ref.digests))
		}
		w := tc.mk()
		for k, size := range tc.sizes {
			w.advance(size)
			if want := (detect.FNV64{}).Sum(w.state()); ref.digests[k] != want {
				t.Fatalf("%s: digest %d = %x, want the digest after sizes[0..%d] = %x", tc.name, k, ref.digests[k], k, want)
			}
		}
	}
}

// referenceCases extends the pooled-path compositions with the two
// cases the reference trajectory is most sensitive to: a witness pair
// whose workloads differ only in a parameter absent from name and
// state (Heat's alpha), and a short, non-dyadic final pattern checked
// by a non-default detector.
func referenceCases() []struct {
	name string
	sc   Scenario
} {
	cases := scenarioPoolCases()

	alpha := testScenario()
	alpha.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat(64, 0.1)) }

	short := testScenario()
	short.TotalWork = 333.3
	short.Plan.W = 47.5
	short.Costs.LambdaF = 5e-4
	short.Detector = detect.CRC32C{}
	short.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat2D(12, 0.2)) }

	// 100 patterns of a 48,016-byte state: above maxReferenceBytes, so
	// the reference holds digests. Quarter-sweep patterns and CRC-32C
	// keep the test fast.
	aboveCap := testScenario()
	aboveCap.TotalWork = 25
	aboveCap.Plan.W = 0.25
	aboveCap.Costs.LambdaS = 1e-2
	aboveCap.Detector = detect.CRC32C{}
	aboveCap.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat(6000, 0.2)) }

	return append(cases,
		struct {
			name string
			sc   Scenario
		}{"heat-alpha-witness", alpha},
		struct {
			name string
			sc   Scenario
		}{"short-last-pattern", short},
		struct {
			name string
			sc   Scenario
		}{"reference-above-cap", aboveCap})
}

// TestReferenceMatchesLiveReplica is the equivalence test: for every
// composition, the single-run path and the pooled per-run path must
// reproduce the live-replica reports and verifier counts run for run,
// and the fan-out and chunk entry points its estimates.
func TestReferenceMatchesLiveReplica(t *testing.T) {
	const seed, n = 17, 40
	for _, tc := range referenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.sc.Validate(); err != nil {
				t.Fatal(err)
			}
			sizes := tc.sc.patternSizes()
			want := make([]Report, n)
			wantCounts := make([]verifierCounts, n)
			detections := 0
			for i := range want {
				want[i], wantCounts[i] = legacyReport(t, tc.sc, seed, i, sizes)
				detections += wantCounts[i].detections

				sc := tc.sc
				sc.Obs.TraceSink = guardSink()
				x, err := freshApp(sc, seed, "scenario/"+strconv.Itoa(i), sizes)
				if err != nil {
					t.Fatal(err)
				}
				got, err := guarded(t, "single run", x.Run)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if !sameBits(got, want[i]) {
					t.Fatalf("single run %d diverged from the live replica:\n got %+v\nwant %+v", i, got, want[i])
				}
				if c := countsOf(x); c != wantCounts[i] {
					t.Fatalf("single run %d: verifier counted %+v, live replica %+v", i, c, wantCounts[i])
				}
			}

			// Only blind runs may go without a single rollback.
			if detections == 0 && !tc.sc.SkipVerification {
				t.Fatalf("no verification failed in %d runs: the composition does not exercise rollbacks", n)
			}

			// The pooled path, consecutive runs on one scratch.
			c, err := newScenarioCampaign(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			if c.ref != nil && (c.ref.stride == 0) != (tc.name == "reference-above-cap") {
				t.Fatalf("reference stored at stride %d: only the above-cap case holds digests", c.ref.stride)
			}
			c.sc.Obs.TraceSink = guardSink()
			s := scenarioScratchPool.Get().(*scenarioScratch)
			defer putScratch(s)
			s.prepare(c)
			for i := range want {
				got, err := guarded(t, "pooled run", func() (Report, error) { return s.runReport(c, seed, replication(i)) })
				if err != nil {
					t.Fatalf("pooled run %d: %v", i, err)
				}
				if !sameBits(got, want[i]) {
					t.Fatalf("pooled run %d diverged from the live replica:\n got %+v\nwant %+v", i, got, want[i])
				}
				if got := countsOf(&s.app); got != wantCounts[i] {
					t.Fatalf("pooled run %d: verifier counted %+v, live replica %+v", i, got, wantCounts[i])
				}
			}

			// The fan-out and the chunk entry point, against estimates
			// folded from the live-replica reports.
			chunks := min(replicateChunks, n)
			total := estimator{w: tc.sc.TotalWork}
			for ch := 0; ch < chunks; ch++ {
				lo, hi := ChunkBounds(n, chunks, ch)
				acc := estimator{w: tc.sc.TotalWork}
				for i := lo; i < hi; i++ {
					acc.add(PatternResult{Time: want[i].Makespan, Energy: want[i].Energy, Attempts: want[i].Attempts})
				}
				part, err := ReplicateScenarioChunkValidatedCtx(context.Background(), tc.sc, seed, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(part, acc.state()) {
					t.Fatalf("chunk [%d,%d) diverged from the live replica:\n got %+v\nwant %+v", lo, hi, part, acc.state())
				}
				total.merge(&acc)
			}
			got, err := ReplicateScenario(tc.sc, seed, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := total.estimate(n); !sameBits(got, want) {
				t.Fatalf("fan-out diverged from the live replica:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestReferenceAcrossWitnessCampaigns drives one scratch through
// alternating campaigns whose workloads differ only in Heat's alpha:
// each campaign's reference must come from its own physics, never from
// a scratch workload cached for the other.
func TestReferenceAcrossWitnessCampaigns(t *testing.T) {
	const seed = 5
	mk := func(alpha float64) Scenario {
		sc := testScenario()
		sc.Costs.LambdaS = 4e-3
		sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat(64, alpha)) }
		return sc
	}
	s := scenarioScratchPool.Get().(*scenarioScratch)
	defer putScratch(s)
	for round := 0; round < 3; round++ {
		for _, sc := range []Scenario{mk(0.1), mk(0.25)} {
			c, err := newScenarioCampaign(sc)
			if err != nil {
				t.Fatal(err)
			}
			c.sc.Obs.TraceSink = guardSink()
			s.prepare(c)
			got, err := guarded(t, "pooled run", func() (Report, error) { return s.runReport(c, seed, replication(round)) })
			if err != nil {
				t.Fatal(err)
			}
			want, _ := legacyReport(t, sc, seed, round, sc.patternSizes())
			if !sameBits(got, want) {
				t.Fatalf("round %d diverged after a campaign switch:\n got %+v\nwant %+v", round, got, want)
			}
		}
	}
}

// budgetDetector wraps a detector with a digest budget shared by every
// goroutine, for fan-outs no trace sink can guard: a verification that
// never passes exhausts it and panics instead of hanging.
type budgetDetector struct {
	detect.Detector
	left *atomic.Int64
}

func (d budgetDetector) Sum(state []byte) detect.Digest {
	if d.left.Add(-1) < 0 {
		panic("engine test: digest budget exhausted: verification never passes")
	}
	return d.Detector.Sum(state)
}

// TestReferenceSharedAcrossWorkers replicates concurrently from several
// goroutines — whole fan-outs whose workers all read their call's
// reference, and chunk calls beside them — and requires every estimate
// to equal the sequential one. Under -race it also proves a reference
// stays read-only while the workers and calls that share it run.
func TestReferenceSharedAcrossWorkers(t *testing.T) {
	const seed, n = 23, 12
	// The above-cap case shares its digests exactly as the others share
	// their stored states, and its 4 MiB of state per run is slow under
	// the race detector; TestReferenceMatchesLiveReplica covers it.
	cases := slices.DeleteFunc(referenceCases(), func(tc struct {
		name string
		sc   Scenario
	}) bool {
		return tc.name == "reference-above-cap"
	})
	budget := new(atomic.Int64)
	budget.Store(200_000)
	for k := range cases {
		det := cases[k].sc.Detector
		if det == nil {
			det = detect.FNV64{}
		}
		cases[k].sc.Detector = budgetDetector{det, budget}
	}
	want := make([]Estimate, len(cases))
	wantChunk := make([]ChunkEstimate, len(cases))
	for k, tc := range cases {
		est, err := ReplicateScenario(tc.sc, seed, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = est
		if wantChunk[k], err = ReplicateScenarioChunkValidatedCtx(context.Background(), tc.sc, seed, 3, 9); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 3
	errs := make(chan error, 2*goroutines*len(cases))
	for g := 0; g < goroutines; g++ {
		go func() {
			for k, tc := range cases {
				est, err := ReplicateScenario(tc.sc, seed, n, 4)
				if err == nil && !sameBits(est, want[k]) {
					err = fmt.Errorf("%s: concurrent estimate diverged:\n got %+v\nwant %+v", tc.name, est, want[k])
				}
				errs <- err
			}
		}()
		go func() {
			for k, tc := range cases {
				part, err := ReplicateScenarioChunkValidatedCtx(context.Background(), tc.sc, seed, 3, 9)
				if err == nil && !sameBits(part, wantChunk[k]) {
					err = fmt.Errorf("%s: concurrent chunk diverged:\n got %+v\nwant %+v", tc.name, part, wantChunk[k])
				}
				errs <- err
			}
		}()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
