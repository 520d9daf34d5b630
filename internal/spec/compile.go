package spec

import (
	"fmt"
	"slices"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/faults"
	"respeed/internal/platform"
	"respeed/internal/workload"
)

// Env is the compile environment: the platform parameters quantities
// resolve against and the default energy model.
type Env struct {
	Params core.Params
	Model  energy.Model
}

// EnvFor derives the compile environment from a catalog configuration,
// exactly as the serve and CLI layers historically did.
func EnvFor(cfg platform.Config) Env {
	return Env{
		Params: core.FromConfig(cfg),
		Model:  energy.Model{Kappa: cfg.Processor.Kappa, Pidle: cfg.Processor.Pidle, Pio: cfg.Pio},
	}
}

// Compile lowers the spec into an engine.Scenario against env.
//
// Fault lowering preserves bit-exactness with the legacy hand-built
// constructions: plain exponential channels without correlation or
// trace replay compile to the exact legacy fault processes (aggregate
// rates on Costs, or UniformNodes for multi-node platforms), so a spec
// re-expressing a named scenario reproduces its goldens byte for byte.
// Only compositions the legacy paths cannot express — Weibull or
// log-normal inter-arrivals, correlated bursts, trace replay — compile
// to an engine.Renewal description.
func (s ScenarioSpec) Compile(env Env) (engine.Scenario, error) {
	if err := s.Validate(); err != nil {
		return engine.Scenario{}, err
	}
	p := env.Params
	sc := engine.Scenario{
		Plan:      engine.Plan{W: s.Plan.W, Sigma1: s.Plan.Sigma1, Sigma2: s.Plan.Sigma2},
		Costs:     engine.Costs{C: p.C, V: p.V, R: p.R},
		Model:     env.Model,
		TotalWork: s.TotalWork,
	}
	if s.Costs != nil {
		if s.Costs.C != nil {
			sc.Costs.C = s.Costs.C.Resolve(p)
		}
		if s.Costs.V != nil {
			sc.Costs.V = s.Costs.V.Resolve(p)
		}
		if s.Costs.R != nil {
			sc.Costs.R = s.Costs.R.Resolve(p)
		}
	}
	if s.Energy != nil {
		if s.Energy.Kappa != nil {
			sc.Model.Kappa = *s.Energy.Kappa
		}
		if s.Energy.Pidle != nil {
			sc.Model.Pidle = *s.Energy.Pidle
		}
		if s.Energy.Pio != nil {
			sc.Model.Pio = *s.Energy.Pio
		}
	}
	sc.NewWorkload = s.workloadFactory()
	s.compileFaults(&sc)
	if cp := s.Checkpoint; cp != nil && cp.Tier == "two-level" {
		sc.TwoLevel = &engine.TwoLevelSpec{
			MemC:  cp.MemC.Resolve(p),
			DiskC: cp.DiskC.Resolve(p),
			DiskR: cp.DiskR.Resolve(p),
			Every: cp.Every,
		}
	}
	if v := s.Verification; v != nil {
		switch v.Mode {
		case "partial":
			sc.Partial = &engine.Partial{
				Segments: v.Segments,
				Coverage: v.Coverage,
				Cost:     v.Cost.Resolve(p),
			}
		case "none":
			sc.SkipVerification = true
		}
	}
	if err := sc.Validate(); err != nil {
		return engine.Scenario{}, fmt.Errorf("spec: compiled scenario invalid: %w", err)
	}
	return sc, nil
}

// workloadFactory builds the scenario's workload constructor. The spec
// is already validated, so the constructors' panic preconditions hold.
func (s ScenarioSpec) workloadFactory() func() *engine.Runner {
	w := s.Workload
	if w == nil {
		// The historical demo workload every hand-built scenario used.
		return func() *engine.Runner { return engine.FromWorkload(workload.NewStream(7, 64)) }
	}
	switch w.Kind {
	case "heat":
		return func() *engine.Runner { return engine.FromWorkload(workload.NewHeat(w.Size, w.Alpha)) }
	case "heat2d":
		return func() *engine.Runner { return engine.FromWorkload(workload.NewHeat2D(w.Size, w.Alpha)) }
	case "matvec":
		return func() *engine.Runner { return engine.FromWorkload(workload.NewMatVec(w.Size)) }
	default: // "stream"
		return func() *engine.Runner { return engine.FromWorkload(workload.NewStream(w.Seed, w.Size)) }
	}
}

// isPlainExponential reports whether d is expressible by the legacy
// exponential machinery (nil counts: rate 0).
func isPlainExponential(d *DistSpec) bool {
	return d == nil || d.Dist == DistExponential
}

// expRate returns the exponential rate of a plain channel.
func expRate(d *DistSpec) float64 {
	if d == nil {
		return 0
	}
	return d.Rate
}

// compileFaults lowers the fault composition onto sc, choosing the
// legacy construction whenever it is expressible there, and otherwise
// describing the renewal channels once for every run to share.
func (s ScenarioSpec) compileFaults(sc *engine.Scenario) {
	f := s.Faults
	if f.Correlation == nil && isPlainExponential(f.Silent) && isPlainExponential(f.FailStop) {
		if f.Nodes > 0 {
			sc.Nodes = engine.UniformNodes(f.Nodes, expRate(f.Silent), expRate(f.FailStop))
		} else {
			sc.Costs.LambdaS = expRate(f.Silent)
			sc.Costs.LambdaF = expRate(f.FailStop)
		}
		return
	}
	r := &engine.Renewal{
		Silent:   f.Silent.arrivals(1),
		FailStop: f.FailStop.arrivals(f.Nodes),
		Nodes:    f.Nodes,
	}
	if c := f.Correlation; c != nil {
		r.Burst = c.Burst.arrivals(1)
		r.BurstSpread = c.Spread
	}
	sc.Renewal = r
}

// arrivals lowers one validated channel (nil: none). An exponential
// rate is divided among nodes > 1 — a platform total split evenly per
// node, matching UniformNodes; the other families are per-node
// processes already. Trace times are copied, so the scenario shares no
// slice with the spec.
func (d *DistSpec) arrivals(nodes int) *engine.Arrivals {
	if d == nil {
		return nil
	}
	switch d.Dist {
	case DistTrace:
		return &engine.Arrivals{Times: slices.Clone(d.Times)}
	case DistWeibull:
		return &engine.Arrivals{Dist: faults.Weibull{Shape: d.Shape, Scale: d.Scale}}
	case DistLogNormal:
		return &engine.Arrivals{Dist: faults.LogNormal{Mu: d.Mu, Sigma: d.Sigma}}
	}
	rate := d.Rate
	if nodes > 1 {
		rate /= float64(nodes)
	}
	return &engine.Arrivals{Dist: faults.Exponential{Rate: rate}}
}
