package engine

import (
	"fmt"
	"math"
	"slices"
	"strconv"

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
}

// FaultProcess samples when errors strike an execution. Implementations
// must be deterministic in their seed material; each preserves the RNG
// draw order of the legacy simulator it replaces. A process that
// attributes errors to nodes counts every strike it reports, at the
// moment it reports it, so executors must act on each one.
type FaultProcess interface {
	// SampleWindow samples one standard attempt window: a fail-stop
	// anywhere in span seconds starting at now, and a silent error
	// within the leading silentSpan (the compute phase).
	SampleWindow(now, span, silentSpan float64) Outcome
	// SampleFailStop samples only the fail-stop process over span —
	// the partial-verification path draws it separately from the
	// per-segment silent checks.
	SampleFailStop(now, span float64) (at float64, hit bool)
	// SampleSilent samples only the silent process over dur.
	SampleSilent(dur float64) (hit bool)
	// Corrupt flips state bits to materialize a silent error.
	Corrupt(state []byte)
}

// AggregateFaults is the paper's platform model: one aggregated silent
// process (rate λs) and one aggregated fail-stop process (rate λf),
// sampled lazily from a single stream — fail-stop first, then silent
// only if no fail-stop struck. A zero rate or an empty window draws
// nothing. Corruption draws from the same stream.
type AggregateFaults struct {
	lambdaS, lambdaF float64
	rng              *rngx.Stream
}

// NewAggregateFaults builds the aggregate process on rng. It panics on
// negative rates or a nil stream.
func NewAggregateFaults(lambdaS, lambdaF float64, rng *rngx.Stream) *AggregateFaults {
	if lambdaS < 0 || lambdaF < 0 {
		panic("engine: negative error rate")
	}
	if rng == nil {
		panic("engine: nil rng stream")
	}
	return &AggregateFaults{lambdaS: lambdaS, lambdaF: lambdaF, rng: rng}
}

// failStopWithin draws a fail-stop arrival against a window of span
// seconds and reports its offset when it strikes inside.
func (a *AggregateFaults) failStopWithin(span float64) (float64, bool) {
	if a.lambdaF == 0 || span <= 0 {
		return 0, false
	}
	if at := a.rng.Exp(a.lambdaF); at < span {
		return at, true
	}
	return 0, false
}

// silentWithin reports whether a silent arrival strikes within dur.
func (a *AggregateFaults) silentWithin(dur float64) bool {
	if a.lambdaS == 0 || dur <= 0 {
		return false
	}
	return a.rng.Exp(a.lambdaS) < dur
}

// SampleWindow implements FaultProcess.
func (a *AggregateFaults) SampleWindow(now, span, silentSpan float64) Outcome {
	if at, hit := a.failStopWithin(span); hit {
		return Outcome{FailStop: true, FailStopAt: at}
	}
	return Outcome{FailStopAt: math.Inf(1), Silent: a.silentWithin(silentSpan)}
}

// SampleFailStop implements FaultProcess.
func (a *AggregateFaults) SampleFailStop(now, span float64) (float64, bool) {
	return a.failStopWithin(span)
}

// SampleSilent implements FaultProcess.
func (a *AggregateFaults) SampleSilent(dur float64) bool { return a.silentWithin(dur) }

// Corrupt implements FaultProcess.
func (a *AggregateFaults) Corrupt(state []byte) { faults.Corrupt(a.rng, state) }

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
// of node-iteration internals. Every reported strike is counted
// against the node it struck (PerNodeErrors).
type PerNodeFaults struct {
	nodes   []Node
	rngs    []rngx.Stream
	clock   float64
	corrupt rngx.Stream
	errors  []int
	// suffixes caches the "/node-<i>" stream-name suffixes across
	// resets, so re-deriving the streams builds no strings.
	suffixes []string
}

// NewPerNodeFaults builds the per-node process. Node i draws from the
// substream (seed, "<prefix>/node-<i>"); prefix "cluster" reproduces
// the historical cluster simulator streams.
func NewPerNodeFaults(nodes []Node, seed uint64, prefix string) (*PerNodeFaults, error) {
	if err := ValidateNodes(nodes); err != nil {
		return nil, err
	}
	f := new(PerNodeFaults)
	f.reset(nodes, seed, runName{base: prefix, index: -1})
	return f, nil
}

// reset re-derives the process in place as NewPerNodeFaults would with
// name's materialized prefix, reusing its streams and counters. nodes
// must already be valid.
func (f *PerNodeFaults) reset(nodes []Node, seed uint64, name runName) {
	f.nodes, f.clock = nodes, 0
	for len(f.suffixes) < len(nodes) {
		f.suffixes = append(f.suffixes, "/node-"+strconv.Itoa(len(f.suffixes)))
	}
	f.rngs = slices.Grow(f.rngs[:0], len(nodes))[:len(nodes)]
	f.errors = slices.Grow(f.errors[:0], len(nodes))[:len(nodes)]
	clear(f.errors)
	for i := range nodes {
		name.reseed(&f.rngs[i], seed, f.suffixes[i])
	}
	// State corruption draws from a dedicated stream so enabling a
	// real workload does not perturb the per-node arrival processes.
	name.reseed(&f.corrupt, seed, "/corrupt")
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
	failAt, silentAt := math.Inf(1), math.Inf(1)
	failNode, silentNode := -1, -1
	for i, node := range f.nodes {
		if node.FailStopRate > 0 {
			if d := f.rngs[i].Exp(node.FailStopRate); d < span && start+d < failAt {
				failAt, failNode = start+d, i
			}
		}
		if node.SilentRate > 0 {
			if d := f.rngs[i].Exp(node.SilentRate); d < silentSpan && start+d < silentAt {
				silentAt, silentNode = start+d, i
			}
		}
	}
	f.clock = start + span
	out := Outcome{FailStopAt: math.Inf(1)}
	if failNode >= 0 {
		out.FailStopAt = failAt - start
	}
	// The hit test is on the reported offset: d < span can still round
	// to (start+d)−start == span, and then no fail-stop struck.
	if out.FailStopAt < span {
		out.FailStop = true
		f.errors[failNode]++
		// A fail-stop anywhere in the window preempts the attempt, so
		// the silent strike only matters without one.
		return out
	}
	if silentNode >= 0 {
		out.Silent = true
		f.errors[silentNode]++
	}
	return out
}

// SampleFailStop implements FaultProcess: the same scan over the
// fail-stop processes only.
func (f *PerNodeFaults) SampleFailStop(now, span float64) (float64, bool) {
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
	if at < span {
		f.errors[node]++
		return at, true
	}
	return at, false
}

// SampleSilent implements FaultProcess: the earliest per-node silent
// arrival within dur, if any.
func (f *PerNodeFaults) SampleSilent(dur float64) bool {
	best, node := math.Inf(1), -1
	for i, n := range f.nodes {
		if n.SilentRate > 0 {
			if d := f.rngs[i].Exp(n.SilentRate); d < dur && d < best {
				best, node = d, i
			}
		}
	}
	if node < 0 {
		return false
	}
	f.errors[node]++
	return true
}

// Corrupt implements FaultProcess.
func (f *PerNodeFaults) Corrupt(state []byte) { faults.Corrupt(&f.corrupt, state) }
