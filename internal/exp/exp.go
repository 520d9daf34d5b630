// Package exp defines the experiment registry: every table and figure of
// the paper's evaluation section as a named, runnable experiment, plus
// the beyond-paper validation and ablation studies listed in DESIGN.md.
//
// Experiments return structured Results (tables and figure series) that
// the cmd/ tools render as text, CSV, or gnuplot .dat files. Everything
// is deterministic given the seed in Options.
package exp

import (
	"context"
	"fmt"
	"sort"

	"respeed/internal/engine"
	"respeed/internal/tablefmt"
)

// Options tunes experiment execution.
type Options struct {
	// Seed drives all Monte-Carlo experiments.
	Seed uint64
	// Replications is the Monte-Carlo sample count per point.
	Replications int
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// Points is the number of samples per swept parameter.
	Points int
}

// DefaultOptions returns the options used for the committed
// EXPERIMENTS.md numbers.
func DefaultOptions() Options {
	return Options{Seed: 42, Replications: 20000, Workers: 0, Points: 41}
}

// normalize fills zero fields with defaults.
func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Replications == 0 {
		o.Replications = d.Replications
	}
	if o.Points == 0 {
		o.Points = d.Points
	}
	return o
}

// RenderedTable is a captioned text table.
type RenderedTable struct {
	Caption string
	Table   *tablefmt.Table
}

// FigureData is one panel of a figure: named series over a shared x axis.
type FigureData struct {
	// Name identifies the panel (e.g. "fig2-speeds").
	Name string
	// XLabel and LogX describe the axis.
	XLabel string
	LogX   bool
	// X holds the swept parameter values.
	X []float64
	// Series holds one entry per curve; NaN marks infeasible points.
	Series []tablefmt.Series
}

// Result is an experiment's output.
type Result struct {
	// ID is the registry key ("table-rho3", "figure-2", ...).
	ID string
	// Title is the human-readable description.
	Title string
	// Tables and Figures carry the payload (either may be empty).
	Tables  []RenderedTable
	Figures []FigureData
	// Notes records headline findings ("best pair (0.4,0.4)", fitted
	// exponents, maximum savings...).
	Notes []string
}

// Experiment is a runnable registry entry.
type Experiment struct {
	// ID is the unique registry key; Title describes the experiment;
	// Paper cites what it reproduces ("Section 4.2, ρ=3 table").
	ID, Title, Paper string
	// Run executes the experiment.
	Run func(Options) (Result, error)
}

var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs panic at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment id %q", e.ID))
	}
	registry[e.ID] = e
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns the sorted registry keys.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// parallelMap evaluates fn on every input across at most workers
// concurrent calls (0 selects GOMAXPROCS) on the shared engine executor,
// so experiment sweeps and the Monte-Carlo fan-outs they run draw from
// one pool. Results come back in input order, so experiment output is
// byte-stable across runs and core counts. fn must be safe for
// concurrent invocation; each call receives its index so it can derive
// per-point RNG streams. A panic in fn becomes that point's error, and
// the lowest-index error is returned.
func parallelMap[In, Out any](inputs []In, workers int, fn func(i int, in In) (Out, error)) ([]Out, error) {
	out := make([]Out, len(inputs))
	errs := make([]error, len(inputs))
	// FanOut fails only on a cancelled context or a failing chunk, and
	// neither can happen here: errors are kept per point instead, so
	// the lowest index wins whatever order the points finish in.
	_ = engine.SharedExecutor().FanOut(context.Background(), len(inputs), workers, func(i int) error {
		out[i], errs[i] = recoverCall(i, inputs[i], fn)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: point %d: %w", i, err)
		}
	}
	return out, nil
}

// recoverCall runs fn on one input, converting a panic into an error so
// one bad point cannot take down a whole sweep.
func recoverCall[In, Out any](i int, in In, fn func(int, In) (Out, error)) (v Out, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(i, in)
}
