package engine

import (
	"fmt"
	"math"

	"respeed/internal/faults"
	"respeed/internal/rngx"
)

// Outcome is what a FaultProcess decided for one attempt window.
type Outcome struct {
	// FailStop reports a fail-stop strike; FailStopAt is its offset
	// into the window (math.Inf(1) when none struck).
	FailStop   bool
	FailStopAt float64
	// Silent reports a silent error within the window's compute span.
	// A fail-stop anywhere in the window preempts the attempt, so a
	// silent strike is only reported when no fail-stop occurred.
	Silent bool
	// FailNode and SilentNode attribute the errors to a node (-1 for
	// aggregate processes).
	FailNode, SilentNode int
}

// FaultProcess samples when errors strike an execution. Implementations
// must be deterministic in their seed material; each preserves the RNG
// draw order of the legacy simulator it replaces.
type FaultProcess interface {
	// SampleWindow samples one standard attempt window: a fail-stop
	// anywhere in span seconds starting at now, and a silent error
	// within the leading silentSpan (the compute phase).
	SampleWindow(now, span, silentSpan float64) Outcome
	// SampleFailStop samples only the fail-stop process over span —
	// the partial-verification path draws it separately from the
	// per-segment silent checks.
	SampleFailStop(now, span float64) (at float64, node int, hit bool)
	// SampleSilent samples only the silent process over dur.
	SampleSilent(dur float64) (node int, hit bool)
	// NoteFailStop and NoteSilent record that a sampled error was
	// acted upon (per-node processes attribute it to the node).
	NoteFailStop(node int)
	NoteSilent(node int)
	// Corrupt flips state bits to materialize a silent error.
	Corrupt(state []byte)
}

// AggregateFaults is the paper's platform model: one aggregated silent
// process and one aggregated fail-stop process, sampled lazily from a
// single stream (fail-stop first, then silent only if no fail-stop —
// the historical injector draw order).
type AggregateFaults struct {
	inj *faults.Injector
}

// NewAggregateFaults builds the aggregate process on rng.
func NewAggregateFaults(lambdaS, lambdaF float64, rng *rngx.Stream) *AggregateFaults {
	return &AggregateFaults{inj: faults.New(lambdaS, lambdaF, rng)}
}

// Injector exposes the underlying fault injector (for stats).
func (a *AggregateFaults) Injector() *faults.Injector { return a.inj }

// SampleWindow implements FaultProcess.
func (a *AggregateFaults) SampleWindow(now, span, silentSpan float64) Outcome {
	if at, hit := a.inj.FailStopWithin(span); hit {
		return Outcome{FailStop: true, FailStopAt: at, FailNode: -1, SilentNode: -1}
	}
	return Outcome{FailStopAt: math.Inf(1), FailNode: -1, SilentNode: -1,
		Silent: a.inj.SilentWithin(silentSpan)}
}

// SampleFailStop implements FaultProcess.
func (a *AggregateFaults) SampleFailStop(now, span float64) (float64, int, bool) {
	at, hit := a.inj.FailStopWithin(span)
	return at, -1, hit
}

// SampleSilent implements FaultProcess.
func (a *AggregateFaults) SampleSilent(dur float64) (int, bool) {
	return -1, a.inj.SilentWithin(dur)
}

// NoteFailStop implements FaultProcess (no-op: nothing to attribute).
func (a *AggregateFaults) NoteFailStop(int) {}

// NoteSilent implements FaultProcess (no-op).
func (a *AggregateFaults) NoteSilent(int) {}

// Corrupt implements FaultProcess.
func (a *AggregateFaults) Corrupt(state []byte) { a.inj.CorruptState(state) }

// Node is one machine of a multi-node platform.
type Node struct {
	// ID names the node.
	ID int
	// SilentRate and FailStopRate are this node's error rates (per
	// second of wall-clock while the node is computing).
	SilentRate, FailStopRate float64
	// SpeedShare is the node's fraction of the aggregate speed; shares
	// must sum to 1.
	SpeedShare float64
}

// UniformNodes builds n identical nodes that together provide the
// aggregate speed, with the platform rates split evenly — the
// decomposition the paper's aggregate model implies.
func UniformNodes(n int, totalSilentRate, totalFailStopRate float64) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			ID:           i,
			SilentRate:   totalSilentRate / float64(n),
			FailStopRate: totalFailStopRate / float64(n),
			SpeedShare:   1 / float64(n),
		}
	}
	return nodes
}

// ValidateNodes checks a node list: positive speed shares summing to 1
// and non-negative rates.
func ValidateNodes(nodes []Node) error {
	if len(nodes) == 0 {
		return fmt.Errorf("engine: need at least one node")
	}
	var share float64
	for _, n := range nodes {
		if n.SilentRate < 0 || n.FailStopRate < 0 {
			return fmt.Errorf("engine: node %d has negative rates", n.ID)
		}
		if n.SpeedShare <= 0 {
			return fmt.Errorf("engine: node %d has non-positive speed share", n.ID)
		}
		share += n.SpeedShare
	}
	if math.Abs(share-1) > 1e-9 {
		return fmt.Errorf("engine: speed shares sum to %g, want 1", share)
	}
	return nil
}

// PerNodeFaults models N independent per-node Poisson error processes:
// every node draws its next fail-stop and silent arrivals for the
// window, and the earliest fail-stop preempts the attempt. Each node
// consumes its own deterministic substream, so results are independent
// of node-iteration internals.
type PerNodeFaults struct {
	nodes   []Node
	rngs    []*rngx.Stream
	clock   float64
	corrupt *faults.Injector
	errors  []int
}

// NewPerNodeFaults builds the per-node process. Node i draws from the
// substream (seed, "<prefix>/node-<i>"); prefix "cluster" reproduces
// the historical cluster simulator streams.
func NewPerNodeFaults(nodes []Node, seed uint64, prefix string) (*PerNodeFaults, error) {
	if err := ValidateNodes(nodes); err != nil {
		return nil, err
	}
	f := &PerNodeFaults{
		nodes:  nodes,
		rngs:   make([]*rngx.Stream, len(nodes)),
		errors: make([]int, len(nodes)),
	}
	for i := range nodes {
		f.rngs[i] = rngx.NewStream(seed, fmt.Sprintf("%s/node-%d", prefix, i))
	}
	// State corruption draws from a dedicated stream so enabling a
	// real workload does not perturb the per-node arrival processes.
	f.corrupt = faults.New(0, 0, rngx.NewStream(seed, prefix+"/corrupt"))
	return f, nil
}

// PerNodeErrors returns a copy of the per-node error counts.
func (f *PerNodeFaults) PerNodeErrors() []int {
	return append([]int(nil), f.errors...)
}

// windowStart syncs the process clock with the wall clock and returns
// where the window starts. The clock never runs backwards: a window
// sampled at an earlier now starts where the previous one ended.
func (f *PerNodeFaults) windowStart(now float64) float64 {
	if f.clock < now {
		f.clock = now
	}
	return f.clock
}

// SampleWindow implements FaultProcess: a scan for the earliest
// arrivals. Each node draws fail-stop first, then silent. Arrivals are
// compared as absolute times start+d in node order with strict <, so
// simultaneous arrivals go to the lowest node, and offsets are
// reported as (start+d)−start. Every kept arrival lies inside its
// window (silent ones below silentSpan ≤ span), so none carries over
// to the next window.
func (f *PerNodeFaults) SampleWindow(now, span, silentSpan float64) Outcome {
	start := f.windowStart(now)
	out := Outcome{FailStopAt: math.Inf(1), FailNode: -1, SilentNode: -1}
	failAt, silentAt := math.Inf(1), math.Inf(1)
	for i, node := range f.nodes {
		if node.FailStopRate > 0 {
			if d := f.rngs[i].Exp(node.FailStopRate); d < span && start+d < failAt {
				failAt, out.FailNode = start+d, i
			}
		}
		if node.SilentRate > 0 {
			if d := f.rngs[i].Exp(node.SilentRate); d < silentSpan && start+d < silentAt {
				silentAt, out.SilentNode = start+d, i
			}
		}
	}
	f.clock = start + span
	if out.FailNode >= 0 {
		out.FailStopAt = failAt - start
	}
	out.FailStop = out.FailStopAt < span
	// A fail-stop anywhere in the window preempts the attempt, so the
	// silent strike only matters without one.
	if out.FailStop {
		out.SilentNode = -1
	}
	out.Silent = out.SilentNode >= 0
	return out
}

// SampleFailStop implements FaultProcess: the same scan over the
// fail-stop processes only.
func (f *PerNodeFaults) SampleFailStop(now, span float64) (float64, int, bool) {
	start := f.windowStart(now)
	first, node := math.Inf(1), -1
	for i, n := range f.nodes {
		if n.FailStopRate > 0 {
			if d := f.rngs[i].Exp(n.FailStopRate); d < span && start+d < first {
				first, node = start+d, i
			}
		}
	}
	f.clock = start + span
	at := math.Inf(1)
	if node >= 0 {
		at = first - start
	}
	return at, node, at < span
}

// SampleSilent implements FaultProcess: the earliest per-node silent
// arrival within dur, if any.
func (f *PerNodeFaults) SampleSilent(dur float64) (int, bool) {
	best, node := math.Inf(1), -1
	for i, n := range f.nodes {
		if n.SilentRate > 0 {
			if d := f.rngs[i].Exp(n.SilentRate); d < dur && d < best {
				best, node = d, i
			}
		}
	}
	return node, node >= 0
}

// NoteFailStop implements FaultProcess.
func (f *PerNodeFaults) NoteFailStop(node int) {
	if node >= 0 {
		f.errors[node]++
	}
}

// NoteSilent implements FaultProcess.
func (f *PerNodeFaults) NoteSilent(node int) {
	if node >= 0 {
		f.errors[node]++
	}
}

// Corrupt implements FaultProcess.
func (f *PerNodeFaults) Corrupt(state []byte) { f.corrupt.CorruptState(state) }
