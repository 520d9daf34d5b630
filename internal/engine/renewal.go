package engine

import (
	"fmt"
	"math"

	"respeed/internal/faults"
	"respeed/internal/rngx"
)

// RenewalConfig composes a RenewalFaults process from windowed arrival
// channels (renewal processes over arbitrary distributions, or
// deterministic trace replay). It generalizes both legacy processes in
// distribution, not in draw order: exponential renewal channels with
// Nodes == 0 model AggregateFaults' platform, and per-node exponential
// channels PerNodeFaults' nodes, but RenewalFaults advances every
// channel on its own stream where AggregateFaults draws lazily from one
// and PerNodeFaults scans per-node streams in absolute time.
type RenewalConfig struct {
	// Silent is the aggregate silent-error channel (nil: no silent
	// errors).
	Silent faults.ArrivalSource
	// FailStop holds the fail-stop channels — one aggregate channel
	// (Nodes == 0) or exactly Nodes per-node channels.
	FailStop []faults.ArrivalSource
	// Burst, when non-nil, adds a correlated-failure channel: each burst
	// arrival fells a primary victim node and each other node
	// independently with probability BurstSpread — the cascading
	// multi-node failures field studies observe on shared power/cooling
	// domains. Requires Nodes ≥ 2.
	Burst       faults.ArrivalSource
	BurstSpread float64
	// Nodes > 0 enables node attribution (victims drawn from RNG);
	// 0 models the aggregate platform.
	Nodes int
	// RNG drives victim selection, burst spread, and state corruption.
	// Required even without bursts (corruption needs it).
	RNG *rngx.Stream
}

// Validate checks the composition.
func (c RenewalConfig) Validate() error {
	if c.Nodes < 0 {
		return fmt.Errorf("engine: renewal nodes must be ≥ 0")
	}
	want := 1
	if c.Nodes > 0 {
		want = c.Nodes
	}
	if len(c.FailStop) != 0 && len(c.FailStop) != want {
		return fmt.Errorf("engine: renewal needs 0 or %d fail-stop channels, got %d", want, len(c.FailStop))
	}
	if c.Burst != nil && c.Nodes < 2 {
		return fmt.Errorf("engine: correlated bursts need ≥ 2 nodes")
	}
	if c.Burst != nil && (c.BurstSpread < 0 || c.BurstSpread > 1 || math.IsNaN(c.BurstSpread)) {
		return fmt.Errorf("engine: burst spread must be in [0, 1]")
	}
	if c.RNG == nil {
		return fmt.Errorf("engine: renewal needs an RNG stream")
	}
	return nil
}

// RenewalFaults is a FaultProcess over windowed arrival channels.
//
// Determinism contract: channels are consumed in a fixed order per
// sample — fail-stop channels in index order, then the burst channel,
// then the silent channel — and every channel is advanced by its full
// exposure span regardless of whether an earlier channel already struck,
// so the draw sequence depends only on the sequence of windows, never on
// which channel wins a window. Victim/spread/corruption draws come from
// the dedicated RNG stream and happen only when their strike is the
// window's winner; in per-node configurations every reported strike is
// counted against its victim (PerNodeErrors).
type RenewalFaults struct {
	cfg     RenewalConfig
	corrupt *rngx.Stream
	errors  []int
}

// NewRenewalFaults validates and builds the process. State corruption
// draws from a child of cfg.RNG, so enabling a real workload does not
// perturb the arrival or victim draws.
func NewRenewalFaults(cfg RenewalConfig) (*RenewalFaults, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &RenewalFaults{
		cfg:     cfg,
		corrupt: cfg.RNG.Child("corrupt"),
	}
	if cfg.Nodes > 0 {
		f.errors = make([]int, cfg.Nodes)
	}
	return f, nil
}

// PerNodeErrors returns a copy of the per-node error counts (nil for the
// aggregate configuration), mirroring PerNodeFaults.
func (f *RenewalFaults) PerNodeErrors() []int {
	if f.errors == nil {
		return nil
	}
	return append([]int(nil), f.errors...)
}

// sampleFail advances every fail-stop channel (and the burst channel) by
// span, returns the earliest strike and, when it hits a node, counts it
// there. A burst win additionally fells spread victims, counted
// immediately — they are collateral of the same physical event, not
// separate sampled errors.
func (f *RenewalFaults) sampleFail(span float64) (at float64, hit bool) {
	at = math.Inf(1)
	node := -1
	for i, ch := range f.cfg.FailStop {
		if a, h := ch.Within(span); h && a < at {
			at = a
			if f.cfg.Nodes > 0 {
				node = i
			}
		}
	}
	burstWins := false
	if f.cfg.Burst != nil {
		if a, h := f.cfg.Burst.Within(span); h && a < at {
			at, burstWins = a, true
		}
	}
	if burstWins {
		// Primary victim plus independent collateral per other node.
		node = f.cfg.RNG.Intn(f.cfg.Nodes)
		for i := range f.errors {
			if i != node && f.cfg.BurstSpread > 0 && f.cfg.RNG.Bernoulli(f.cfg.BurstSpread) {
				f.errors[i]++
			}
		}
	}
	hit = at < span
	if hit && node >= 0 {
		f.errors[node]++
	}
	return at, hit
}

// noteSilent attributes a reported silent strike. Per-node
// configurations draw its victim from RNG — only here, so a window
// whose silent strike a fail-stop preempted draws no victim.
func (f *RenewalFaults) noteSilent() {
	if f.cfg.Nodes > 0 {
		f.errors[f.cfg.RNG.Intn(f.cfg.Nodes)]++
	}
}

// SampleWindow implements FaultProcess.
func (f *RenewalFaults) SampleWindow(now, span, silentSpan float64) Outcome {
	at, hit := f.sampleFail(span)
	// The silent channel is always advanced — fixed draw order — but a
	// fail-stop anywhere in the window preempts the attempt, so its
	// strike is only reported when no fail-stop occurred.
	silentHit := false
	if f.cfg.Silent != nil {
		_, silentHit = f.cfg.Silent.Within(silentSpan)
	}
	out := Outcome{FailStopAt: at}
	if hit {
		out.FailStop = true
		return out
	}
	if silentHit {
		out.Silent = true
		f.noteSilent()
	}
	return out
}

// SampleFailStop implements FaultProcess: the fail-stop channels only
// (the partial-verification path draws silent checks separately).
func (f *RenewalFaults) SampleFailStop(now, span float64) (float64, bool) {
	return f.sampleFail(span)
}

// SampleSilent implements FaultProcess.
func (f *RenewalFaults) SampleSilent(dur float64) bool {
	if f.cfg.Silent == nil {
		return false
	}
	if _, hit := f.cfg.Silent.Within(dur); !hit {
		return false
	}
	f.noteSilent()
	return true
}

// Corrupt implements FaultProcess.
func (f *RenewalFaults) Corrupt(state []byte) { faults.Corrupt(f.corrupt, state) }
