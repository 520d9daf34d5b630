package engine

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"respeed/internal/detect"
	"respeed/internal/rngx"
	"respeed/internal/workload"
)

// The process-wide trajectory memo (referenceMemo) must be invisible in
// every result: a scenario whose workload has a witness steps its clean
// trajectory once per process, and every call that shares the key
// verifies against that one immutable value. These tests pin the
// sharing, the key, the exclusion of fingerprint-less runners and the
// byte budget.

// flushReferenceMemo empties the memo, so the next call of every key
// steps its trajectory cold.
func flushReferenceMemo() {
	referenceMemo.Lock()
	referenceMemo.entries, referenceMemo.bytes = nil, 0
	referenceMemo.Unlock()
}

// memoKernel is a Stream kernel under a chosen name and fingerprint
// that counts its advances, across clones, in advances.
type memoKernel struct {
	*workload.Stream
	name     string
	fp       uint64
	advances *atomic.Int64
}

func (k *memoKernel) Name() string        { return k.name }
func (k *memoKernel) Fingerprint() uint64 { return k.fp }

func (k *memoKernel) Advance(units float64) {
	k.advances.Add(1)
	k.Stream.Advance(units)
}

func (k *memoKernel) Clone() workload.Workload {
	c := *k
	c.Stream = k.Stream.Clone().(*workload.Stream)
	return &c
}

// memoScenario runs a fault-free scenario on a memoKernel, so every run
// advances exactly once per pattern and any other advance is the
// reference trajectory's.
func memoScenario(advances *atomic.Int64) Scenario {
	sc := testScenario()
	sc.Costs.LambdaS = 0
	sc.NewWorkload = func() *Runner {
		return FromWorkload(&memoKernel{Stream: workload.NewStream(7, 64), name: "memo", fp: 0x6d656d6f, advances: advances})
	}
	return sc
}

// drive runs sc once through every entry point and returns how many
// runs that made: one Run, a 20-run fan-out, a chunk of 6 and a RunOn.
func drive(t *testing.T, sc Scenario) (runs, calls int64) {
	t.Helper()
	if _, err := sc.Run(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplicateScenario(sc, 2, 20, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplicateScenarioChunkValidatedCtx(context.Background(), sc, 3, 3, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunOn(rngx.NewStream(4, "memo")); err != nil {
		t.Fatal(err)
	}
	return 1 + 20 + 6 + 1, 4
}

// TestReferenceMemoStepsOnce: across Run, RunOn, ReplicateScenario and
// ReplicateScenarioChunkValidatedCtx calls, a fingerprinted kernel's
// trajectory is stepped once, while the same kernel behind a
// fingerprint-less runner is stepped once per call.
func TestReferenceMemoStepsOnce(t *testing.T) {
	flushReferenceMemo()
	var advances atomic.Int64
	sc := memoScenario(&advances)
	patterns := int64(len(sc.patternSizes()))
	var runs int64
	for round := 0; round < 2; round++ {
		r, _ := drive(t, sc)
		runs += r
	}
	if got, want := advances.Load(), (runs+1)*patterns; got != want {
		t.Fatalf("%d runs of %d patterns advanced %d times, want %d: the trajectory was stepped %d times, want once",
			runs, patterns, got, want, got/patterns-runs)
	}

	advances.Store(0)
	witnessed := sc.NewWorkload
	sc.NewWorkload = func() *Runner {
		w := witnessed()
		return NewRunner(w.name, w.advanceFn, w.progress, w.stateFn, w.restoreFn, w.clone)
	}
	runs, calls := drive(t, sc)
	if got, want := advances.Load(), (runs+calls)*patterns; got != want {
		t.Fatalf("fingerprint-less runner: %d runs in %d calls advanced %d times, want %d (one trajectory per call)", runs, calls, got, want)
	}
}

// TestReferenceMemoKey: every part of the key — name, fingerprint,
// initial state, pattern sizes and, for the digest form only, the
// detector — separates trajectories, and an equal key shares one.
func TestReferenceMemoKey(t *testing.T) {
	flushReferenceMemo()
	var advances atomic.Int64
	kernel := func(name string, fp, seed uint64) func() *Runner {
		return func() *Runner {
			return FromWorkload(&memoKernel{Stream: workload.NewStream(seed, 64), name: name, fp: fp, advances: &advances})
		}
	}
	base := testScenario()
	base.NewWorkload = kernel("memo", 1, 7)
	// 100 patterns of a 48,016-byte state: above MaxReferenceBytes, so
	// the trajectory holds digests, taken with the detector.
	digests := testScenario()
	digests.TotalWork, digests.Plan.W = 25, 0.25
	digests.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat(6000, 0.2)) }

	ref := func(sc Scenario) *reference {
		t.Helper()
		c, err := newScenarioCampaign(sc)
		if err != nil {
			t.Fatal(err)
		}
		return c.ref
	}
	with := func(sc Scenario, edit func(*Scenario)) Scenario { edit(&sc); return sc }

	a := ref(base)
	for _, tc := range []struct {
		name string
		sc   Scenario
		same bool
	}{
		{"equal key", base, true},
		{"stored form, other detector", with(base, func(sc *Scenario) { sc.Detector = detect.CRC32C{} }), true},
		{"other plan, same sizes", with(base, func(sc *Scenario) { sc.Plan.Sigma1 = 0.5 }), true},
		{"name", with(base, func(sc *Scenario) { sc.NewWorkload = kernel("memo2", 1, 7) }), false},
		{"fingerprint", with(base, func(sc *Scenario) { sc.NewWorkload = kernel("memo", 2, 7) }), false},
		{"initial state", with(base, func(sc *Scenario) { sc.NewWorkload = kernel("memo", 1, 8) }), false},
		{"sizes", with(base, func(sc *Scenario) { sc.TotalWork = 450 }), false},
	} {
		if got := ref(tc.sc); (got == a) != tc.same {
			t.Errorf("%s: shared trajectory = %v, want %v", tc.name, got == a, tc.same)
		}
	}

	d := ref(digests)
	if d.stride != 0 {
		t.Fatal("the digest case stored its states")
	}
	if ref(with(digests, func(sc *Scenario) { sc.Detector = detect.FNV64{} })) != d {
		t.Error("digest form: FNV-64a and the nil detector it defaults to did not share one trajectory")
	}
	if c := ref(with(digests, func(sc *Scenario) { sc.Detector = detect.CRC32C{} })); c == d || c.digests[0] == d.digests[0] {
		t.Error("digest form: another detector shared the trajectory")
	}
	// A detector == cannot compare would panic as a key: the digest form
	// under one is stepped per call and never held.
	unkeyed := with(digests, func(sc *Scenario) { sc.Detector = uncomparableDetector{} })
	if a, b := ref(unkeyed), ref(unkeyed); a == b || a.digests[0] != d.digests[0] {
		t.Error("digest form: a detector == cannot compare was memoized, or digested differently")
	}
}

// uncomparableDetector is FNV-64a behind a type == cannot compare.
type uncomparableDetector struct {
	detect.FNV64
	_ []byte
}

// TestReferenceMemoHitAllocatesNothing: a lookup that finds its entry
// hashes the key and compares it in full without allocating.
func TestReferenceMemoHitAllocatesNothing(t *testing.T) {
	flushReferenceMemo()
	c, err := newScenarioCampaign(simulateShapeScenario())
	if err != nil {
		t.Fatal(err)
	}
	det := detect.OrDefault(c.sc.Detector)
	hit := func() {
		if lookupReference(memoHash(&c.wl, c.sizes), &c.wl, c.sizes, det) != c.ref {
			t.Fatal("the campaign's own key missed")
		}
	}
	if allocs := testing.AllocsPerRun(100, hit); allocs != 0 {
		t.Errorf("a memo hit allocates %.0f times, want 0", allocs)
	}
}

// TestReferenceMemoFingerprintlessRunners: two fingerprint-less runners
// with one name and one initial state that step differently each verify
// against their own trajectory. A memo keyed on what they share would
// hand one the other's states, and its runs would fail verification
// with no error injected.
func TestReferenceMemoFingerprintlessRunners(t *testing.T) {
	flushReferenceMemo()
	fake := func(scale float64) func() *Runner {
		var wrap func(w workload.Workload) *Runner
		wrap = func(w workload.Workload) *Runner {
			return NewRunner("fake", func(u float64) { w.Advance(scale * u) }, w.Progress, w.State, w.Restore,
				func() *Runner { return wrap(w.Clone()) })
		}
		return func() *Runner { return wrap(workload.NewStream(7, 64)) }
	}
	scA, scB := testScenario(), testScenario()
	scA.NewWorkload, scB.NewWorkload = fake(1), fake(2)
	for round := 0; round < 2; round++ {
		for _, sc := range []Scenario{scA, scB} {
			c, err := newScenarioCampaign(sc)
			if err != nil {
				t.Fatal(err)
			}
			if want := newReference(sc.NewWorkload(), c.sizes, detect.FNV64{}); !bytes.Equal(c.ref.states, want.states) {
				t.Fatalf("round %d: a campaign verifies against another runner's trajectory", round)
			}
			if _, err := ReplicateScenario(sc, uint64(round), 16, 0); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if referenceMemo.entries != nil {
		t.Fatalf("fingerprint-less runners were memoized: %d bytes held", referenceMemo.bytes)
	}
}

// TestReferenceMemoBudget: the memo never holds more than
// referenceMemoBytes. An entry that would cross the bound evicts
// everything first, and one larger than the bound is never held.
func TestReferenceMemoBudget(t *testing.T) {
	flushReferenceMemo()
	defer flushReferenceMemo()
	sizes := PatternSizes(100, 1)
	const stride = MaxReferenceBytes / 100
	fit := 0 // entries the budget holds at once
	for i := 0; i < 5; i++ {
		wl := workloadID{name: "budget", fp: uint64(i), state: make([]byte, stride), ok: true}
		ref := &reference{states: make([]byte, 100*stride), stride: stride}
		if fit == 0 {
			fit = referenceMemoBytes / (&memoEntry{wl: wl, sizes: sizes, ref: ref}).size()
		}
		h := memoHash(&wl, sizes)
		if got := storeReference(h, &wl, sizes, detect.FNV64{}, ref); got != ref {
			t.Fatalf("entry %d: store returned another trajectory", i)
		}
		if lookupReference(h, &wl, sizes, detect.FNV64{}) != ref {
			t.Fatalf("entry %d: not held right after it was stored", i)
		}
		held, n := 0, 0
		for _, chain := range referenceMemo.entries {
			for _, e := range chain {
				held += e.size()
				n++
			}
		}
		if held != referenceMemo.bytes || held > referenceMemoBytes {
			t.Fatalf("entry %d: %d entries hold %d bytes, counted %d, budget %d", i, n, held, referenceMemo.bytes, referenceMemoBytes)
		}
		if want := i%fit + 1; n != want {
			t.Fatalf("entry %d: %d entries held, want %d", i, n, want)
		}
	}

	wl := workloadID{name: "huge", state: make([]byte, referenceMemoBytes), ok: true}
	ref := &reference{digests: make([]detect.Digest, 1)}
	h := memoHash(&wl, sizes[:1])
	storeReference(h, &wl, sizes[:1], detect.FNV64{}, ref)
	if lookupReference(h, &wl, sizes[:1], detect.FNV64{}) != nil || referenceMemo.bytes > referenceMemoBytes {
		t.Fatalf("an entry larger than the budget was held (%d bytes)", referenceMemo.bytes)
	}
}

// TestReferenceMemoSharedAcrossCalls runs one key's Run, fan-out and
// chunk calls concurrently from a cold memo, so the first calls race to
// step and store the trajectory while others already read it, and
// requires every result to equal the sequential one and the memo to
// end with a single entry. Under -race it proves the shared trajectory
// is written only before it is published.
func TestReferenceMemoSharedAcrossCalls(t *testing.T) {
	var advances atomic.Int64
	sc := memoScenario(&advances)
	sc.Costs.LambdaS = 4e-3
	const seed, n = 31, 12
	wantRun, err := sc.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	wantEst, err := ReplicateScenario(sc, seed, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantChunk, err := ReplicateScenarioChunkValidatedCtx(context.Background(), sc, seed, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	flushReferenceMemo()
	const goroutines = 4
	errs := make(chan error, 3*goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			rep, err := sc.Run(seed)
			if err == nil && !sameBits(rep, wantRun) {
				err = fmt.Errorf("concurrent run diverged:\n got %+v\nwant %+v", rep, wantRun)
			}
			errs <- err
		}()
		go func() {
			est, err := ReplicateScenario(sc, seed, n, 3)
			if err == nil && !sameBits(est, wantEst) {
				err = fmt.Errorf("concurrent estimate diverged:\n got %+v\nwant %+v", est, wantEst)
			}
			errs <- err
		}()
		go func() {
			part, err := ReplicateScenarioChunkValidatedCtx(context.Background(), sc, seed, 2, 7)
			if err == nil && !sameBits(part, wantChunk) {
				err = fmt.Errorf("concurrent chunk diverged:\n got %+v\nwant %+v", part, wantChunk)
			}
			errs <- err
		}()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	entries := 0
	for _, chain := range referenceMemo.entries {
		entries += len(chain)
	}
	if entries != 1 {
		t.Fatalf("the memo holds %d entries for one key", entries)
	}
}
