package engine

import (
	"math"
	"testing"

	"respeed/internal/rngx"
)

// PerNodeFaults resolves each window by scanning the nodes for the
// earliest arrival. These tests pin what the scan must preserve from
// the event queue it replaced: ties resolve to the lowest node, a
// fail-stop anywhere in the window clears the silent strike, and the
// process clock never runs backwards.

func TestPerNodeFaultsTieGoesToLowestNode(t *testing.T) {
	nodes := UniformNodes(3, 3e-2, 3e-2)
	f, err := NewPerNodeFaults(nodes, 1, "tie")
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1 and 2 replay node 0's stream, so every arrival is
	// simultaneous on all three nodes.
	for i := 1; i < len(nodes); i++ {
		f.rngs[i] = rngx.NewStream(1, "tie/node-0")
	}
	fails, silents := 0, 0
	now := 0.0
	for w := 0; w < 500; w++ {
		out := f.SampleWindow(now, 60, 50)
		if out.FailStop {
			fails++
			if out.FailNode != 0 {
				t.Fatalf("window %d: simultaneous fail-stop went to node %d", w, out.FailNode)
			}
		}
		if out.Silent {
			silents++
			if out.SilentNode != 0 {
				t.Fatalf("window %d: simultaneous silent strike went to node %d", w, out.SilentNode)
			}
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
	if !out.FailStop || out.FailNode != 0 {
		t.Fatalf("want a fail-stop on node 0, got %+v", out)
	}
	if out.Silent || out.SilentNode != -1 {
		t.Errorf("fail-stop must clear the silent strike, got %+v", out)
	}

	nodes[0].FailStopRate = 0
	if f, err = NewPerNodeFaults(nodes, 2, "clear"); err != nil {
		t.Fatal(err)
	}
	out = f.SampleWindow(0, 100, 90)
	if out.FailStop || out.FailNode != -1 || !math.IsInf(out.FailStopAt, 1) {
		t.Errorf("no fail-stop process, got %+v", out)
	}
	if !out.Silent || out.SilentNode != 1 {
		t.Errorf("want a silent strike on node 1, got %+v", out)
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
	at, node, hit := f.SampleFailStop(5e5, 10)
	d = ref.Exp(1)
	start := 1e6 + 10
	if want := (start + d) - start; !hit || node != 0 || math.Float64bits(at) != math.Float64bits(want) {
		t.Errorf("earlier now: got (%v, %d, %v), want offset %v from the clock", at, node, hit, want)
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
