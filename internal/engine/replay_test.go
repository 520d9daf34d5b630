package engine

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"respeed/internal/detect"
	"respeed/internal/rngx"
	"respeed/internal/workload"
)

// The guaranteed path replays a stored trajectory instead of stepping
// the kernel in every attempt, and the trajectory build checks the
// stored states against a second runner. These tests count the advances
// runs make on each path, and feed the build kernels whose runners do
// not step alike.

// countingKernel counts a kernel's advances, across clones, in
// advances. It keeps the kernel's fingerprint, so campaigns memoize its
// trajectory as they would the kernel's own.
type countingKernel struct {
	workload.Workload
	advances *atomic.Int64
}

func (k *countingKernel) Fingerprint() uint64 {
	return k.Workload.(interface{ Fingerprint() uint64 }).Fingerprint()
}

func (k *countingKernel) Advance(units float64) {
	k.advances.Add(1)
	k.Workload.Advance(units)
}

func (k *countingKernel) Clone() workload.Workload {
	return &countingKernel{k.Workload.Clone(), k.advances}
}

// TestReplayStepsOnlyDirtyStates counts the advances of each run on the
// pooled path, after its campaign is built. At the simulate shape
// (per-node faults, a two-level tier, silent and fail-stop strikes) the
// runs replay a stored trajectory and advance 0 times, and so does the
// fan-out. A digest trajectory (above MaxReferenceBytes), and blind
// runs, step once per attempt a fail-stop did not cut short; partial
// verification steps the workload and its replica in every segment.
func TestReplayStepsOnlyDirtyStates(t *testing.T) {
	const seed, n = 101, 24
	cases := map[string]Scenario{}
	for _, tc := range referenceCases() {
		cases[tc.name] = tc.sc
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
		kern func() workload.Workload
		// want is the advances of a run with rep's attempts, or -1
		// where it is only bounded below by stepping both copies once.
		want func(rep Report) int
	}{
		{"simulate-shape", simulateShapeScenario(), func() workload.Workload { return workload.NewHeat2D(16, 0.2) },
			func(Report) int { return 0 }},
		{"reference-above-cap", cases["reference-above-cap"], func() workload.Workload { return workload.NewHeat(6000, 0.2) },
			func(rep Report) int { return rep.Attempts - rep.FailStops }},
		{"skip-verification", cases["skip-verification"], func() workload.Workload { return workload.NewStream(7, 64) },
			func(rep Report) int { return rep.Attempts - rep.FailStops }},
		{"partial-failstop", cases["partial-failstop"], func() workload.Workload { return workload.NewStream(7, 64) },
			func(Report) int { return -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var advances atomic.Int64
			sc := tc.sc
			sc.NewWorkload = func() *Runner { return FromWorkload(&countingKernel{tc.kern(), &advances}) }
			c, err := newScenarioCampaign(sc)
			if err != nil {
				t.Fatal(err)
			}
			if stored := c.ref != nil && c.ref.stride > 0; stored != (tc.name == "simulate-shape") {
				t.Fatalf("trajectory stored = %v: only the simulate shape stores its states", stored)
			}
			s := getScratch(c)
			defer putScratch(s)
			var silent, failStops, recoveries int
			for i := 0; i < n; i++ {
				advances.Store(0)
				rep, err := s.runReport(c, seed, replication(i))
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				got, want := int(advances.Load()), tc.want(rep)
				if want < 0 && got < 2*(rep.Attempts-rep.FailStops) || want >= 0 && got != want {
					t.Fatalf("run %d: %d attempts with %d fail-stops advanced the kernel %d times, want %d",
						i, rep.Attempts, rep.FailStops, got, want)
				}
				silent, failStops = silent+rep.SilentInjected, failStops+rep.FailStops
				recoveries += rep.MemRecoveries + rep.DiskRecoveries
			}
			if tc.name != "simulate-shape" {
				return
			}
			if silent == 0 || failStops == 0 || recoveries == 0 {
				t.Fatalf("%d runs took %d silent strikes, %d fail-stops and %d recoveries: the shape exercises no rollback",
					n, silent, failStops, recoveries)
			}
			advances.Store(0)
			if _, err := ReplicateScenario(sc, seed, n, 0); err != nil {
				t.Fatal(err)
			}
			if got := advances.Load(); got != 0 {
				t.Fatalf("a %d-run fan-out on the memoized trajectory advanced the kernel %d times, want 0", n, got)
			}
		})
	}
}

// aliasingKernel is a heat2d kernel whose clones share its grid: every
// clone is the kernel itself.
type aliasingKernel struct{ *workload.Heat2D }

func (aliasingKernel) Name() string               { return "aliasing" }
func (k aliasingKernel) Clone() workload.Workload { return k }

// sharedCounterKernel is a stream kernel whose Advance reads a counter
// all its clones share, so two clones stepped through the same sizes
// do different work.
type sharedCounterKernel struct {
	*workload.Stream
	calls *atomic.Int64
}

func (*sharedCounterKernel) Name() string        { return "shared-counter" }
func (*sharedCounterKernel) Fingerprint() uint64 { return 0x73686172 }

func (k *sharedCounterKernel) Advance(units float64) {
	k.Stream.Advance(units + float64(k.calls.Add(1)))
}

func (k *sharedCounterKernel) Clone() workload.Workload {
	return &sharedCounterKernel{k.Stream.Clone().(*workload.Stream), k.calls}
}

// TestReferenceCheckCatchesDivergence feeds the trajectory build two
// kernels whose runners do not step alike: one whose clones alias one
// grid, one whose Advance reads a counter shared across clones. A run
// that replays never steps, so only the build can see them. Every entry
// point must fail at the build, naming the workload and the first
// pattern, and the memo must stay empty.
func TestReferenceCheckCatchesDivergence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *Runner
	}{
		{"aliasing", func() *Runner { return FromWorkload(aliasingKernel{workload.NewHeat2D(12, 0.2)}) }},
		{"shared-counter", func() *Runner {
			return FromWorkload(&sharedCounterKernel{workload.NewStream(7, 64), new(atomic.Int64)})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flushReferenceMemo()
			sc := testScenario()
			sc.NewWorkload = tc.mk
			check := func(entry string, err error) {
				t.Helper()
				want := `workload "` + tc.name + `" left its clean trajectory at pattern 0`
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: err = %v, want the trajectory check's %q", entry, err, want)
				}
				if referenceMemo.entries != nil {
					t.Fatalf("%s: a trajectory whose check failed was memoized", entry)
				}
			}
			_, err := NewApp(AppConfig{
				Plan:     sc.Plan,
				Verify:   sc.Costs.V,
				Sizes:    sc.patternSizes(),
				Faults:   NewAggregateFaults(sc.Costs.LambdaS, 0, rngx.NewStream(1, "divergence")),
				Tier:     NewSingleLevel(sc.Costs.C, sc.Costs.R),
				Recorder: NewMeterRecorder(sc.Model),
				Detector: detect.FNV64{},
			}, sc.NewWorkload())
			check("NewApp", err)
			_, err = sc.Run(1)
			check("Scenario.Run", err)
			_, err = ReplicateScenario(sc, 1, 8, 0)
			check("ReplicateScenario", err)
			_, err = ReplicateScenarioChunkValidatedCtx(context.Background(), sc, 1, 0, 4)
			check("ReplicateScenarioChunkValidatedCtx", err)
		})
	}
}
