package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"respeed/internal/faults"
	"respeed/internal/rngx"
)

// Arrivals describes one arrival channel of a Renewal composition: a
// renewal process over Dist, or, when Dist is nil, replay of the
// recorded arrival times Times (absolute seconds of exposure). Every
// run of a scenario reads the same description; none writes it.
type Arrivals struct {
	Dist  faults.Dist
	Times []float64
}

// validate checks one channel description (nil: no channel).
func (a *Arrivals) validate(channel string) error {
	var err error
	switch {
	case a == nil:
	case a.Dist == nil:
		err = faults.ValidateArrivalTimes(a.Times)
	case len(a.Times) > 0:
		err = errors.New("both a distribution and trace times are set")
	default:
		err = a.Dist.Validate()
	}
	if err != nil {
		err = fmt.Errorf("engine: renewal %s channel: %w", channel, err)
	}
	return err
}

// Renewal describes a fault process of windowed arrival channels —
// renewal processes over arbitrary inter-arrival laws, or trace replay —
// that every run of a scenario builds in place (RenewalFaults).
// Exponential channels match AggregateFaults (Nodes == 0) and
// PerNodeFaults in distribution, not in draw order: every channel
// advances on its own stream.
type Renewal struct {
	// Silent is the aggregate silent-error channel (nil: no silent
	// errors).
	Silent *Arrivals
	// FailStop is the fail-stop channel (nil: no fail-stops): one
	// aggregate channel when Nodes == 0, else one channel per node,
	// each running this description on its own stream.
	FailStop *Arrivals
	// Burst, when non-nil, adds a correlated-failure channel: each burst
	// arrival fells a primary victim node and each other node
	// independently with probability BurstSpread — the cascading
	// multi-node failures field studies observe on shared power/cooling
	// domains. Requires Nodes ≥ 2.
	Burst       *Arrivals
	BurstSpread float64
	// Nodes > 0 enables node attribution (victims drawn at random);
	// 0 models the aggregate platform.
	Nodes int
}

// Validate checks the composition.
func (r *Renewal) Validate() error {
	switch {
	case r.Nodes < 0:
		return fmt.Errorf("engine: renewal nodes must be ≥ 0")
	case r.Burst != nil && r.Nodes < 2:
		return fmt.Errorf("engine: correlated bursts need ≥ 2 nodes")
	case r.Burst != nil && !(r.BurstSpread >= 0 && r.BurstSpread <= 1):
		return fmt.Errorf("engine: burst spread must be in [0, 1]")
	}
	return errors.Join(r.Silent.validate("silent"), r.FailStop.validate("fail-stop"), r.Burst.validate("burst"))
}

// arrivalChannel is one channel of a RenewalFaults, reset in place per
// run: a renewal process on its own stream, or a trace replay.
type arrivalChannel struct {
	rng      rngx.Stream
	renewal  faults.Renewal
	schedule faults.Schedule
	replay   bool
}

// reset arms the channel for one run of a (nil: none): a renewal
// process reseeded on name's stream with suffix, or a replay rewound to
// the first recorded arrival.
func (c *arrivalChannel) reset(a *Arrivals, seed uint64, name runName, suffix string) {
	if c.replay = a != nil && a.Dist == nil; c.replay {
		c.schedule.Reset(a.Times)
	} else if a != nil {
		name.reseed(&c.rng, seed, suffix)
		c.renewal.Reset(a.Dist, &c.rng)
	}
}

// within exposes the channel for span seconds.
func (c *arrivalChannel) within(span float64) (float64, bool) {
	if c.replay {
		return c.schedule.Within(span)
	}
	return c.renewal.Within(span)
}

// RenewalFaults is the FaultProcess of a Renewal description.
//
// Determinism contract: channels are consumed in a fixed order per
// sample — fail-stop channels in index order, then the burst channel,
// then the silent channel — and every channel is advanced by its full
// exposure span regardless of whether an earlier channel already struck,
// so the draw sequence depends only on the sequence of windows, never on
// which channel wins a window. Victim/spread draws come from the aux
// stream and happen only when their strike is the window's winner; in
// per-node configurations every reported strike is counted against its
// victim (PerNodeErrors).
type RenewalFaults struct {
	desc     *Renewal
	silent   arrivalChannel
	failStop []arrivalChannel
	burst    arrivalChannel
	aux      rngx.Stream
	corrupt  rngx.Stream
	errors   []int
	// suffixes caches the "/renewal/failstop-<i>" stream-name suffixes
	// across resets, so re-deriving the streams builds no strings.
	suffixes []string
}

// reset arms the process in place for one run of the valid desc, on
// name's streams "<run>/renewal/" + silent, failstop-<i>, burst, aux
// (victims and spread) and aux/corrupt (state corruption, so a real
// workload does not perturb the arrival or victim draws).
func (f *RenewalFaults) reset(desc *Renewal, seed uint64, name runName) {
	f.desc = desc
	name.reseed(&f.aux, seed, "/renewal/aux")
	name.reseed(&f.corrupt, seed, "/renewal/aux/corrupt")
	f.silent.reset(desc.Silent, seed, name, "/renewal/silent")
	f.burst.reset(desc.Burst, seed, name, "/renewal/burst")
	channels := 0
	if desc.FailStop != nil {
		channels = max(1, desc.Nodes)
	}
	for len(f.suffixes) < channels {
		f.suffixes = append(f.suffixes, "/renewal/failstop-"+strconv.Itoa(len(f.suffixes)))
	}
	f.failStop = slices.Grow(f.failStop[:0], channels)[:channels]
	for i := range f.failStop {
		f.failStop[i].reset(desc.FailStop, seed, name, f.suffixes[i])
	}
	f.errors = slices.Grow(f.errors[:0], desc.Nodes)[:desc.Nodes]
	clear(f.errors)
}

// release drops what the process borrowed from its scenario — the
// description and each channel's distribution and trace times — and
// keeps its buffers and cached names for the next reset.
func (f *RenewalFaults) release() {
	f.desc = nil
	f.silent, f.burst = arrivalChannel{}, arrivalChannel{}
	clear(f.failStop[:cap(f.failStop)])
}

// PerNodeErrors returns a copy of the per-node error counts (nil for the
// aggregate configuration), mirroring PerNodeFaults.
func (f *RenewalFaults) PerNodeErrors() []int {
	if len(f.errors) == 0 {
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
	for i := range f.failStop {
		if a, h := f.failStop[i].within(span); h && a < at {
			at = a
			if f.desc.Nodes > 0 {
				node = i
			}
		}
	}
	burstWins := false
	if f.desc.Burst != nil {
		if a, h := f.burst.within(span); h && a < at {
			at, burstWins = a, true
		}
	}
	if burstWins {
		// Primary victim plus independent collateral per other node.
		node = f.aux.Intn(f.desc.Nodes)
		for i := range f.errors {
			if i != node && f.desc.BurstSpread > 0 && f.aux.Bernoulli(f.desc.BurstSpread) {
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
// configurations draw its victim from the aux stream — only here, so a
// window whose silent strike a fail-stop preempted draws no victim.
func (f *RenewalFaults) noteSilent() {
	if f.desc.Nodes > 0 {
		f.errors[f.aux.Intn(f.desc.Nodes)]++
	}
}

// SampleWindow implements FaultProcess.
func (f *RenewalFaults) SampleWindow(now, span, silentSpan float64) Outcome {
	at, hit := f.sampleFail(span)
	// The silent channel is always advanced — fixed draw order — but a
	// fail-stop anywhere in the window preempts the attempt, so its
	// strike is only reported when no fail-stop occurred.
	silentHit := false
	if f.desc.Silent != nil {
		_, silentHit = f.silent.within(silentSpan)
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
	if f.desc.Silent == nil {
		return false
	}
	if _, hit := f.silent.within(dur); !hit {
		return false
	}
	f.noteSilent()
	return true
}

// Corrupt implements FaultProcess.
func (f *RenewalFaults) Corrupt(state []byte) { faults.Corrupt(&f.corrupt, state) }
