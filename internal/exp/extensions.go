package exp

import (
	"fmt"
	"math"
	"strings"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/optimize"
	"respeed/internal/platform"
	"respeed/internal/rngx"
	"respeed/internal/schedule"
	"respeed/internal/stats"
	"respeed/internal/tablefmt"
	"respeed/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "combined-bicrit",
		Title: "Numeric BiCrit under combined fail-stop + silent errors (the paper's open problem)",
		Paper: "Section 5 / Section 7 future work: 'new methods are needed to capture the general case'",
		Run:   runCombinedBiCrit,
	})
	register(Experiment{
		ID:    "continuous-speeds",
		Title: "Ablation: discrete DVFS states vs a continuous speed range",
		Paper: "beyond-paper: quantifies the discretization loss of Table 2's speed sets",
		Run:   runContinuousSpeeds,
	})
	register(Experiment{
		ID:    "verification-ablation",
		Title: "Ablation: verified checkpoints vs blind checkpoints under injected SDCs",
		Paper: "Section 1's corrupted-checkpoint hazard, demonstrated end to end",
		Run:   runVerificationAblation,
	})
	register(Experiment{
		ID:    "cluster-aggregation",
		Title: "Node-level cluster simulation vs the paper's aggregate platform model",
		Paper: "Section 2.1 ('each speed is the aggregated speed of all processors')",
		Run:   runClusterAggregation,
	})
	register(Experiment{
		ID:    "pareto-frontier",
		Title: "Time/energy Pareto frontier per configuration",
		Paper: "beyond-paper: the full trade-off curve BiCrit samples one point of",
		Run:   runParetoFrontier,
	})
	register(Experiment{
		ID:    "application-plans",
		Title: "End-to-end application plans (makespan/energy for a week-long job)",
		Paper: "Section 2.3 (Ttotal ≈ (T/W)·Wbase)",
		Run:   runApplicationPlans,
	})
}

// runCombinedBiCrit sweeps the fail-stop fraction f at fixed total rate
// and solves the general two-error BiCrit numerically — no validity-
// window restriction.
func runCombinedBiCrit(o Options) (Result, error) {
	o = o.normalize()
	cfg, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfg)
	p.Lambda *= 100 // make the error mix matter at pattern scale
	speeds := cfg.Processor.Speeds
	fs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

	type row struct {
		f                     float64
		s1, s2, w, e          float64
		singleE               float64
		gain                  float64
		outsideWindowFeasible int
	}
	rows, err := parallelMap(fs, o.Workers, func(i int, f float64) (row, error) {
		cp := p.Split(f)
		best, grid, err := optimize.SolveCombined(cp, speeds, defaultRho)
		if err != nil {
			return row{}, err
		}
		r := row{f: f, s1: best.Sigma1, s2: best.Sigma2, w: best.W, e: best.EnergyOverhead}
		if one, _, err := optimize.SolveCombinedSingleSpeed(cp, speeds, defaultRho); err == nil {
			r.singleE = one.EnergyOverhead
			r.gain = (one.EnergyOverhead - best.EnergyOverhead) / one.EnergyOverhead
		}
		// Count feasible pairs the first-order method cannot even model.
		lo, hi := cp.SpeedRatioWindow()
		for _, g := range grid {
			ratio := g.Sigma2 / g.Sigma1
			if g.Feasible && (ratio <= lo || ratio >= hi) {
				r.outsideWindowFeasible++
			}
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}
	tab := tablefmt.New("f", "σ1", "σ2", "Wopt", "E/W two", "E/W one", "gain", "feasible pairs outside FO window")
	for _, r := range rows {
		tab.AddRowValues(r.f, r.s1, r.s2, math.Floor(r.w), r.e, r.singleE,
			fmt.Sprintf("%.1f%%", 100*r.gain), r.outsideWindowFeasible)
	}
	return Result{
		ID:    "combined-bicrit",
		Title: "General-case BiCrit (Hera/XScale, λ×100, ρ=3)",
		Tables: []RenderedTable{{
			Caption: "Numeric optimum vs fail-stop fraction f; the last column counts solvable pairs the paper's first-order method excludes",
			Table:   tab,
		}},
	}, nil
}

// runContinuousSpeeds compares the discrete catalog optimum with the
// continuous relaxation over the same speed range.
func runContinuousSpeeds(o Options) (Result, error) {
	o = o.normalize()
	rhos := []float64{1.4, 1.775, 2.5, 3}
	tab := tablefmt.New("Config", "ρ", "discrete pair", "discrete E/W", "continuous pair", "continuous E/W", "discretization loss")
	var worst float64
	worstAt := ""
	for _, cfg := range platform.Configs() {
		p := core.FromConfig(cfg)
		speeds := cfg.Processor.Speeds
		lo := cfg.Processor.MinSpeed()
		hi := cfg.Processor.MaxSpeed()
		for _, rho := range rhos {
			disc, _, err := optimize.Solve(p, speeds, rho)
			if err != nil {
				continue
			}
			cont := optimize.SolveContinuous(p, lo, hi, rho, speeds)
			if !cont.Feasible {
				continue
			}
			loss := (disc.EnergyOverhead - cont.EnergyOverhead) / cont.EnergyOverhead
			tab.AddRowValues(cfg.Name(), rho,
				fmt.Sprintf("(%g,%g)", disc.Sigma1, disc.Sigma2), disc.EnergyOverhead,
				fmt.Sprintf("(%.3f,%.3f)", cont.Sigma1, cont.Sigma2), cont.EnergyOverhead,
				fmt.Sprintf("%.2f%%", 100*loss))
			if loss > worst {
				worst, worstAt = loss, fmt.Sprintf("%s @ρ=%g", cfg.Name(), rho)
			}
		}
	}
	return Result{
		ID:    "continuous-speeds",
		Title: "Discrete vs continuous DVFS",
		Tables: []RenderedTable{{
			Caption: "Energy overhead paid for having only 5 discrete speeds, vs a continuous range",
			Table:   tab,
		}},
		Notes: []string{fmt.Sprintf("worst discretization loss: %.2f%% (%s)", 100*worst, worstAt)},
	}, nil
}

// runVerificationAblation executes the full stack with and without
// verification across seeds and reports corruption rates.
func runVerificationAblation(o Options) (Result, error) {
	o = o.normalize()
	cfg, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfg)
	base := engine.Scenario{
		Plan:      engine.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     engine.Costs{C: p.C, V: p.V, R: p.R, LambdaS: 2e-3},
		Model:     energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio},
		TotalWork: 1000,
		NewWorkload: func() *engine.Runner {
			return engine.FromWorkload(workload.NewHeat(128, 0.25))
		},
	}
	const trials = 20
	type outcome struct {
		corrupted int
		injected  int
		makespanV float64
		makespanB float64
	}
	var out outcome
	for trial := 0; trial < trials; trial++ {
		seedName := fmt.Sprintf("verif-ablation/%d", trial)
		clean := base
		clean.Costs.LambdaS = 0
		cleanRep, err := clean.RunOn(rngx.NewStream(o.Seed, seedName+"/clean"))
		if err != nil {
			return Result{}, err
		}

		vRep, err := base.RunOn(rngx.NewStream(o.Seed, seedName+"/v"))
		if err != nil {
			return Result{}, err
		}
		if vRep.StateDigest != cleanRep.StateDigest {
			return Result{}, fmt.Errorf("verified run corrupted (trial %d)", trial)
		}

		blind := base
		blind.SkipVerification = true
		bRep, err := blind.RunOn(rngx.NewStream(o.Seed, seedName+"/b"))
		if err != nil {
			return Result{}, err
		}
		out.injected += bRep.SilentInjected
		if bRep.SilentInjected > 0 && bRep.StateDigest != cleanRep.StateDigest {
			out.corrupted++
		}
		out.makespanV += vRep.Makespan
		out.makespanB += bRep.Makespan
	}
	tab := tablefmt.New("metric", "verified", "blind")
	tab.AddRowValues("mean makespan [s]", out.makespanV/trials, out.makespanB/trials)
	tab.AddRowValues("corrupted final states", 0, out.corrupted)
	tab.AddRowValues("SDCs injected (blind runs)", "-", out.injected)
	return Result{
		ID:    "verification-ablation",
		Title: "Verified vs blind checkpoints (Hera/XScale costs, λs=2e-3, 20 trials)",
		Tables: []RenderedTable{{
			Caption: "Blind checkpointing is faster per pattern but commits corrupted state; verification buys correctness for V/σ per pattern",
			Table:   tab,
		}},
		Notes: []string{fmt.Sprintf("blind executions ended corrupted in %d/%d trials (whenever ≥1 SDC struck)", out.corrupted, trials)},
	}, nil
}

// runClusterAggregation sweeps the node count and reports the deviation
// of the node-level simulation from the aggregate analytical model.
func runClusterAggregation(o Options) (Result, error) {
	o = o.normalize()
	cfgP, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfgP)
	p.Lambda *= 100
	plan := engine.Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	want := p.ExpectedTime(plan.W, plan.Sigma1, plan.Sigma2)

	nodeCounts := []float64{1, 2, 4, 8, 16, 32, 64}
	ests, err := parallelMap(nodeCounts, o.Workers, func(i int, nf float64) (engine.Estimate, error) {
		fp, err := engine.NewPerNodeFaults(engine.UniformNodes(int(nf), p.Lambda, 0), o.Seed+uint64(i), "cluster")
		if err != nil {
			return engine.Estimate{}, err
		}
		eng, err := engine.NewPatternEngine(engine.PatternConfig{
			Plan:     plan,
			Costs:    engine.Costs{C: p.C, V: p.V, R: p.R},
			Faults:   fp,
			Recorder: engine.NewSumRecorder(energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio}),
			// Platform-level billing: compute+verify is one aggregate
			// Compute segment.
			CombineVerify: true,
		})
		if err != nil {
			return engine.Estimate{}, err
		}
		return engine.ReplicatePattern(eng, plan.W, o.Replications)
	})
	if err != nil {
		return Result{}, err
	}
	tab := tablefmt.New("nodes", "simulated T", "±CI95", "aggregate model T", "rel.dev", "within CI")
	maxDev := 0.0
	for i, est := range ests {
		dev := math.Abs(est.Time.Mean-want) / want
		maxDev = math.Max(maxDev, dev)
		tab.AddRowValues(nodeCounts[i], est.Time.Mean, est.Time.CI95, want, dev,
			fmt.Sprintf("%v", math.Abs(est.Time.Mean-want) <= 2*est.Time.CI95))
	}
	return Result{
		ID:    "cluster-aggregation",
		Title: "Aggregation check: N per-node Poisson processes ≡ one aggregate process",
		Tables: []RenderedTable{{
			Caption: fmt.Sprintf("Node-level DES vs Proposition 2 (Hera/XScale λ×100, W=2764, σ=(0.4,0.8), %d patterns per point)", o.Replications),
			Table:   tab,
		}},
		Notes: []string{fmt.Sprintf("worst relative deviation across node counts: %.3g", maxDev)},
	}, nil
}

// runParetoFrontier emits the time/energy frontier for every
// configuration.
func runParetoFrontier(o Options) (Result, error) {
	o = o.normalize()
	res := Result{ID: "pareto-frontier", Title: "Time/energy trade-off frontiers"}
	for _, cfg := range platform.Configs() {
		p := core.FromConfig(cfg)
		frontier := p.ParetoFrontier(cfg.Processor.Speeds, 8, o.Points)
		xs := make([]float64, len(frontier))
		eo := make([]float64, len(frontier))
		to := make([]float64, len(frontier))
		for i, pt := range frontier {
			xs[i] = pt.Rho
			eo[i] = pt.EnergyOverhead
			to[i] = pt.TimeOverhead
		}
		res.Figures = append(res.Figures, FigureData{
			Name: "pareto-" + sanitize(cfg.Name()), XLabel: "rho", X: xs,
			Series: []tablefmt.Series{
				{Name: "E/W", Y: eo},
				{Name: "T/W", Y: to},
			},
		})
	}
	return res, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '/', ' ':
			out = append(out, '-')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// runApplicationPlans plans a week of work (Wbase chosen so the
// error-free run is ~7 days at full speed) on every configuration and
// tabulates end-to-end expectations.
func runApplicationPlans(o Options) (Result, error) {
	const week = 7 * 24 * 3600.0 // work units = seconds at full speed
	tab := tablefmt.New("Config", "pair", "W", "patterns", "E[makespan] days", "overhead", "E[energy] kJ-eq", "vs single-speed")
	for _, cfg := range platform.Configs() {
		plan, err := schedule.Plan(cfg, defaultRho, week)
		if err != nil {
			return Result{}, err
		}
		saving := "-"
		if oneE, ok := schedule.CompareSingleSpeed(cfg, defaultRho, week); ok && oneE > 0 {
			saving = fmt.Sprintf("%.1f%%", 100*(oneE-plan.ExpectedEnergy)/oneE)
		}
		tab.AddRowValues(cfg.Name(),
			fmt.Sprintf("(%g,%g)", plan.Best.Sigma1, plan.Best.Sigma2),
			math.Floor(plan.Best.W), plan.Patterns(),
			plan.ExpectedMakespan/86400,
			fmt.Sprintf("%.2f%%", 100*plan.Overhead()),
			plan.ExpectedEnergy/1e6, // mW·s → kJ·10⁻³-ish scale for readability
			saving)
	}
	return Result{
		ID:    "application-plans",
		Title: fmt.Sprintf("Week-long application plans at ρ=%g", defaultRho),
		Tables: []RenderedTable{{
			Caption: "End-to-end expectations from internal/schedule (Section 2.3 applied)",
			Table:   tab,
		}},
	}, nil
}

func init() {
	register(Experiment{
		ID:    "twolevel-k",
		Title: "Two-level checkpointing: tuning the disk interval k",
		Paper: "the paper's reference [5] (multi-level checkpointing), simulated end to end",
		Run:   runTwoLevelK,
	})
}

// runTwoLevelK sweeps the disk-checkpoint interval k under frequent
// fail-stop crashes and reports the simulated mean makespan: small k
// drowns in disk I/O, large k drowns in rollback re-execution, and the
// optimum sits in between.
func runTwoLevelK(o Options) (Result, error) {
	o = o.normalize()
	ks := []float64{1, 2, 3, 4, 6, 8, 12, 20}
	reps := o.Replications / 200
	if reps < 30 {
		reps = 30
	}
	means, err := parallelMap(ks, o.Workers, func(i int, kf float64) (float64, error) {
		sc := engine.Scenario{
			Plan:      engine.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
			Costs:     engine.Costs{V: 15.4, R: 30, LambdaS: 5e-4, LambdaF: 2e-3},
			Model:     energy.Model{Kappa: 1550, Pidle: 60, Pio: 5.23},
			TotalWork: 1000,
			TwoLevel:  &engine.TwoLevelSpec{MemC: 20, DiskC: 300, DiskR: 300, Every: int(kf)},
			NewWorkload: func() *engine.Runner {
				return engine.FromWorkload(workload.NewStream(o.Seed, 8))
			},
		}
		// Only the makespan is reported, and it is the same under either
		// energy recorder, so the metered scenario path serves.
		seed := o.Seed + uint64(i)
		var makespan stats.Welford
		for r := 0; r < reps; r++ {
			rep, err := sc.RunOn(rngx.NewStream(seed, fmt.Sprintf("twolevel/%d", r)))
			if err != nil {
				return 0, err
			}
			makespan.Add(rep.Makespan)
		}
		return makespan.Mean(), nil
	})
	if err != nil {
		return Result{}, err
	}
	tab := tablefmt.New("disk interval k", "mean makespan [s]", "vs best")
	best := math.Inf(1)
	bestK := 0
	for i, m := range means {
		if m < best {
			best, bestK = m, int(ks[i])
		}
	}
	for i, m := range means {
		tab.AddRowValues(ks[i], m, fmt.Sprintf("+%.1f%%", 100*(m/best-1)))
	}
	return Result{
		ID:    "twolevel-k",
		Title: "Disk-checkpoint interval under crashes (memory C=20s, disk C=R=300s, λf=2e-3)",
		Tables: []RenderedTable{{
			Caption: fmt.Sprintf("Simulated mean makespan over %d runs per k; optimum at k=%d", reps, bestK),
			Table:   tab,
		}},
		Figures: []FigureData{{
			Name: "twolevel-k", XLabel: "k", X: ks,
			Series: []tablefmt.Series{{Name: "mean makespan", Y: means}},
		}},
		Notes: []string{fmt.Sprintf("best disk interval k=%d (interior optimum: k=1 pays I/O, large k pays rollback)", bestK)},
	}, nil
}

func init() {
	register(Experiment{
		ID:    "speed-design",
		Title: "Design tool: workload-aware DVFS speed sets vs the hardware catalogs",
		Paper: "beyond-paper: the model inverted into a design question",
		Run:   runSpeedDesign,
	})
}

// runSpeedDesign asks, for each platform: if the processor's K=5 DVFS
// states could be chosen freely, which speeds minimize the mean optimal
// energy overhead across a spread of bounds — and how much do the
// catalog's hardware-given states leave on the table?
func runSpeedDesign(o Options) (Result, error) {
	o = o.normalize()
	rhos := []float64{1.775, 2.5, 3, 8}
	tab := tablefmt.New("Config", "catalog mean E/W", "designed speeds", "designed mean E/W", "improvement")
	rows, err := parallelMap(platform.Configs(), o.Workers, func(i int, cfg platform.Config) ([]any, error) {
		p := core.FromConfig(cfg)
		speeds := cfg.Processor.Speeds
		lo, hi := cfg.Processor.MinSpeed(), cfg.Processor.MaxSpeed()
		catalogMean, _, _ := optimize.EvaluateSpeedSet(p, speeds, rhos)
		res, err := optimize.DesignSpeeds(p, len(speeds), lo, hi, rhos, speeds)
		if err != nil {
			return nil, err
		}
		imp := (catalogMean - res.Objective) / catalogMean
		spd := make([]string, len(res.Speeds))
		for j, s := range res.Speeds {
			spd[j] = fmt.Sprintf("%.3f", s)
		}
		return []any{cfg.Name(), catalogMean, strings.Join(spd, " "), res.Objective,
			fmt.Sprintf("%.2f%%", 100*imp)}, nil
	})
	if err != nil {
		return Result{}, err
	}
	for _, cells := range rows {
		tab.AddRowValues(cells...)
	}
	return Result{
		ID:    "speed-design",
		Title: fmt.Sprintf("Designed K=5 speed sets over ρ ∈ %v", rhos),
		Tables: []RenderedTable{{
			Caption: "Free choice of the five DVFS states vs the Table 2 catalogs (same speed range)",
			Table:   tab,
		}},
	}, nil
}
