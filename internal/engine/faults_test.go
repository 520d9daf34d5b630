package engine

import (
	"math"
	"reflect"
	"testing"

	"respeed/internal/rngx"
)

// PerNodeFaults resolves each window by scanning the nodes for the
// earliest arrival. These tests pin what the scan must preserve from
// the event queue it replaced: ties resolve to the lowest node, a
// fail-stop anywhere in the window clears the silent strike, and the
// process clock never runs backwards.

// struckNodes samples one window and returns the per-node error counts
// it added.
func struckNodes(f *PerNodeFaults, sample func()) []int {
	before := f.PerNodeErrors()
	sample()
	delta := f.PerNodeErrors()
	for i := range delta {
		delta[i] -= before[i]
	}
	return delta
}

func TestPerNodeFaultsTieGoesToLowestNode(t *testing.T) {
	nodes := UniformNodes(3, 3e-2, 3e-2)
	f, err := NewPerNodeFaults(nodes, 1, "tie")
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1 and 2 replay node 0's stream, so every arrival is
	// simultaneous on all three nodes.
	for i := 1; i < len(nodes); i++ {
		f.rngs[i].Reseed(1, "tie/node-0")
	}
	fails, silents := 0, 0
	now := 0.0
	for w := 0; w < 500; w++ {
		var out Outcome
		delta := struckNodes(f, func() { out = f.SampleWindow(now, 60, 50) })
		want := []int{0, 0, 0}
		if out.FailStop || out.Silent {
			want[0] = 1
		}
		if !reflect.DeepEqual(delta, want) {
			t.Fatalf("window %d (%+v): counted %v, want %v", w, out, delta, want)
		}
		if out.FailStop {
			fails++
		}
		if out.Silent {
			silents++
		}
		now += 60
	}
	if fails == 0 || silents == 0 {
		t.Fatalf("vacuous: %d fail-stops, %d silent strikes", fails, silents)
	}
}

func TestPerNodeFaultsFailStopClearsSilent(t *testing.T) {
	// Node 0 always crashes within the window; node 1 is always struck
	// silently within the compute span.
	nodes := []Node{
		{ID: 0, FailStopRate: 10, SpeedShare: 0.5},
		{ID: 1, SilentRate: 10, SpeedShare: 0.5},
	}
	f, err := NewPerNodeFaults(nodes, 2, "clear")
	if err != nil {
		t.Fatal(err)
	}
	out := f.SampleWindow(0, 100, 90)
	if !out.FailStop || out.Silent {
		t.Fatalf("want a fail-stop clearing the silent strike, got %+v", out)
	}
	if got := f.PerNodeErrors(); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("counted %v, want the fail-stop on node 0 only", got)
	}

	nodes[0].FailStopRate = 0
	if f, err = NewPerNodeFaults(nodes, 2, "clear"); err != nil {
		t.Fatal(err)
	}
	out = f.SampleWindow(0, 100, 90)
	if out.FailStop || !math.IsInf(out.FailStopAt, 1) || !out.Silent {
		t.Errorf("want a silent strike and no fail-stop, got %+v", out)
	}
	if got := f.PerNodeErrors(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("counted %v, want the silent strike on node 1", got)
	}
}

func TestPerNodeFaultsClockNeverRunsBackwards(t *testing.T) {
	nodes := []Node{{ID: 0, FailStopRate: 1, SpeedShare: 1}}
	f, err := NewPerNodeFaults(nodes, 3, "clock")
	if err != nil {
		t.Fatal(err)
	}
	ref := rngx.NewStream(3, "clock/node-0")

	// A window at now=1e6 starts there; its offset is computed from
	// absolute times, (start+d)−start, not d.
	out := f.SampleWindow(1e6, 10, 5)
	d := ref.Exp(1)
	if want := (1e6 + d) - 1e6; !out.FailStop || math.Float64bits(out.FailStopAt) != math.Float64bits(want) {
		t.Errorf("offset %v, want (start+d)−start = %v", out.FailStopAt, want)
	}
	if f.clock != 1e6+10 {
		t.Fatalf("clock %v after the window, want %v", f.clock, 1e6+10)
	}

	// A window requested at an earlier now starts where the clock is.
	at, hit := f.SampleFailStop(5e5, 10)
	d = ref.Exp(1)
	start := 1e6 + 10
	if want := (start + d) - start; !hit || math.Float64bits(at) != math.Float64bits(want) {
		t.Errorf("earlier now: got (%v, %v), want offset %v from the clock", at, hit, want)
	}
	if got := f.PerNodeErrors(); got[0] != 2 {
		t.Errorf("node 0 counted %d strikes, want 2", got[0])
	}
	if f.clock != start+10 {
		t.Errorf("clock %v, want %v", f.clock, start+10)
	}

	// A later now moves the clock forward.
	f.SampleWindow(2e6, 10, 5)
	if f.clock != 2e6+10 {
		t.Errorf("clock %v, want %v", f.clock, 2e6+10)
	}
}

// AggregateFaults draws the paper's Poisson arrivals lazily from one
// stream: fail-stop first, silent only when no fail-stop struck, and
// nothing at a zero rate or over an empty window. These tests pin the
// draw semantics the executors and the lane kernel's goldens rely on.

func newAggregate(ls, lf float64) *AggregateFaults {
	return NewAggregateFaults(ls, lf, rngx.NewStream(7, "faults-test"))
}

func TestAggregateFaultsSilentFrequency(t *testing.T) {
	// Empirical hit rate over a window must match 1 − e^{−λd}.
	const lambda, dur, n = 1e-4, 5000.0, 100000
	a := newAggregate(lambda, 0)
	hits := 0
	for i := 0; i < n; i++ {
		if a.SampleSilent(dur) {
			hits++
		}
	}
	got := float64(hits) / n
	want := 1 - math.Exp(-lambda*dur)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("hit rate %g, want %g", got, want)
	}
}

func TestAggregateFaultsZeroRatesNeverFire(t *testing.T) {
	a := newAggregate(0, 0)
	for i := 0; i < 1000; i++ {
		if a.SampleSilent(1e12) {
			t.Fatal("silent error with zero rate")
		}
		if _, hit := a.SampleFailStop(0, 1e12); hit {
			t.Fatal("fail-stop with zero rate")
		}
		if out := a.SampleWindow(0, 1e12, 1e12); out.FailStop || out.Silent || !math.IsInf(out.FailStopAt, 1) {
			t.Fatalf("window with zero rates: %+v", out)
		}
	}
	// Nothing was drawn: the stream is where a fresh one starts.
	if got, want := a.rng.Uint64(), rngx.NewStream(7, "faults-test").Uint64(); got != want {
		t.Error("zero rates consumed stream draws")
	}
}

func TestAggregateFaultsEmptyWindowNeverHits(t *testing.T) {
	a := newAggregate(1, 1)
	if a.SampleSilent(-1) || a.SampleSilent(0) {
		t.Error("empty silent window should not hit")
	}
	if _, hit := a.SampleFailStop(0, 0); hit {
		t.Error("zero fail-stop window should not hit")
	}
	if got, want := a.rng.Uint64(), rngx.NewStream(7, "faults-test").Uint64(); got != want {
		t.Error("empty windows consumed stream draws")
	}
}

func TestAggregateFaultsFailStopArrivalDistribution(t *testing.T) {
	// Conditioned on hitting, arrival offsets follow a truncated
	// exponential; for λd ≪ 1 the mean tends to d/2.
	const lambda, dur, n = 1e-6, 1000.0, 2000000
	a := newAggregate(0, lambda)
	var sum float64
	hits := 0
	for i := 0; i < n; i++ {
		if at, hit := a.SampleFailStop(0, dur); hit {
			if at < 0 || at >= dur {
				t.Fatalf("arrival %g outside window", at)
			}
			sum += at
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no hits sampled")
	}
	mean := sum / float64(hits)
	if math.Abs(mean-dur/2) > 25 {
		t.Errorf("conditional mean arrival %g, want ≈ %g", mean, dur/2)
	}
}

// TestAggregateFaultsLazyDrawOrder pins the window's draw order on the
// shared stream: one fail-stop draw, then a silent draw only when the
// fail-stop missed.
func TestAggregateFaultsLazyDrawOrder(t *testing.T) {
	const ls, lf, span, silentSpan = 2e-2, 1e-2, 60.0, 50.0
	a := newAggregate(ls, lf)
	ref := rngx.NewStream(7, "faults-test")
	fails, silents := 0, 0
	for w := 0; w < 2000; w++ {
		out := a.SampleWindow(0, span, silentSpan)
		d := ref.Exp(lf)
		want := Outcome{FailStop: d < span, FailStopAt: d}
		if !want.FailStop {
			want = Outcome{FailStopAt: math.Inf(1), Silent: ref.Exp(ls) < silentSpan}
		}
		if out != want {
			t.Fatalf("window %d: got %+v, want %+v", w, out, want)
		}
		if out.FailStop {
			fails++
		}
		if out.Silent {
			silents++
		}
	}
	if fails == 0 || silents == 0 {
		t.Fatalf("vacuous: %d fail-stops, %d silent strikes", fails, silents)
	}
}

func TestAggregateFaultsRejectsBadArgs(t *testing.T) {
	for name, f := range map[string]func(){
		"negative silent rate":    func() { NewAggregateFaults(-1, 0, rngx.NewStream(1, "x")) },
		"negative fail-stop rate": func() { NewAggregateFaults(0, -1, rngx.NewStream(1, "x")) },
		"nil rng":                 func() { NewAggregateFaults(1, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// perNodeDraws drives a per-node process through a fixed mix of
// windows and returns everything it reported: outcomes, strike counts
// and a corruption.
func perNodeDraws(f *PerNodeFaults) []any {
	var out []any
	now := 0.0
	for w := 0; w < 300; w++ {
		switch w % 3 {
		case 0:
			out = append(out, f.SampleWindow(now, 60, 50))
		case 1:
			at, hit := f.SampleFailStop(now, 40)
			out = append(out, at, hit)
		default:
			out = append(out, f.SampleSilent(25))
		}
		now += 55
	}
	state := make([]byte, 64)
	f.Corrupt(state)
	return append(out, state, f.PerNodeErrors())
}

// TestPerNodeFaultsResetMatchesNew re-derives one process in place
// across node lists (growing and shrinking), plain and indexed run names
// and seeds, and requires the same stream names, draws, strike counts
// and corruption as a process NewPerNodeFaults builds under the
// materialized prefix.
func TestPerNodeFaultsResetMatchesNew(t *testing.T) {
	lists := [][]Node{
		UniformNodes(4, 2e-3, 5e-4),
		UniformNodes(16, 1e-2, 1e-2),
		{{ID: 0, SilentRate: 3e-2, SpeedShare: 0.25}, {ID: 1, FailStopRate: 2e-2, SpeedShare: 0.75}},
		UniformNodes(1, 0, 3e-2),
		UniformNodes(6, 5e-3, 5e-3),
	}
	names := []struct {
		run    runName
		prefix string
	}{
		{runName{base: "cluster", index: -1}, "cluster"},
		{runName{base: "scenario", index: -1}, "scenario"},
		{replication(0), "scenario/0"},
		{replication(7), "scenario/7"},
		{replication(1234), "scenario/1234"},
	}
	var f PerNodeFaults
	for _, seed := range []uint64{1, 99} {
		for _, nodes := range lists {
			for _, name := range names {
				f.reset(nodes, seed, name.run)
				want, err := NewPerNodeFaults(nodes, seed, name.prefix)
				if err != nil {
					t.Fatal(err)
				}
				for i := range nodes {
					if got, w := f.rngs[i].Name(), want.rngs[i].Name(); got != w {
						t.Fatalf("node %d stream %q, want %q", i, got, w)
					}
				}
				if got, w := f.corrupt.Name(), want.corrupt.Name(); got != w {
					t.Fatalf("corrupt stream %q, want %q", got, w)
				}
				if got, w := perNodeDraws(&f), perNodeDraws(want); !reflect.DeepEqual(got, w) {
					t.Fatalf("seed %d, %d nodes, %q: reset process diverged from a new one", seed, len(nodes), name.prefix)
				}
			}
		}
	}
}
