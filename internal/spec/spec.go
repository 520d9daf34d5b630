// Package spec is the declarative scenario DSL: a versioned JSON
// description of a fault process × checkpoint tier × verification
// discipline × workload composition that compiles into an
// engine.Scenario. One spec replaces the hand-built scenario
// constructions previously duplicated across serve, jobs, and the CLI.
//
// Determinism contract: a spec compiled against the same environment
// (platform params + energy model) and run at the same seed reproduces
// bit-identical reports; plain exponential fault specs compile to the
// exact legacy constructions, so the built-in named scenarios stay
// byte-identical to their hand-built ancestors.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"

	"respeed/internal/core"
	"respeed/internal/engine"
	"respeed/internal/faults"
	"respeed/internal/trace"
)

// SchemaVersion is the spec grammar version this package parses. Specs
// must declare it explicitly so stored spec files fail loudly instead
// of silently reinterpreting when the grammar evolves.
const SchemaVersion = 1

// ScenarioSpec is the root document. Quantities (costs, tier costs,
// verification cost) are either absolute seconds or relative to the
// target platform's C/V/R, so one spec file runs against any catalog
// configuration.
type ScenarioSpec struct {
	// Version must equal SchemaVersion.
	Version int `json:"version"`
	// Name labels the spec (registry key for built-ins; metrics label).
	Name string `json:"name,omitempty"`
	// Plan is the checkpoint pattern policy.
	Plan PlanSpec `json:"plan"`
	// TotalWork is the application size in work units.
	TotalWork float64 `json:"total_work"`
	// Costs overrides the platform's C/V/R (nil: use the platform's).
	Costs *CostsSpec `json:"costs,omitempty"`
	// Energy overrides the platform's power model (nil: platform's).
	Energy *EnergySpec `json:"energy,omitempty"`
	// Workload selects the state-carrying workload (nil: stream, seed 7,
	// block length 64 — the historical demo workload).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Faults describes the error processes.
	Faults FaultsSpec `json:"faults"`
	// Checkpoint selects the tier (nil: single-level at cost C).
	Checkpoint *CheckpointSpec `json:"checkpoint,omitempty"`
	// Verification selects the discipline (nil: guaranteed).
	Verification *VerificationSpec `json:"verification,omitempty"`
}

// PlanSpec is the (W, σ1, σ2) pattern policy.
type PlanSpec struct {
	W      float64 `json:"w"`
	Sigma1 float64 `json:"sigma1"`
	Sigma2 float64 `json:"sigma2"`
}

// CostsSpec overrides individual platform resilience costs.
type CostsSpec struct {
	C *Quantity `json:"c,omitempty"`
	V *Quantity `json:"v,omitempty"`
	R *Quantity `json:"r,omitempty"`
}

// EnergySpec overrides individual power-model terms (mW).
type EnergySpec struct {
	Kappa *float64 `json:"kappa,omitempty"`
	Pidle *float64 `json:"pidle,omitempty"`
	Pio   *float64 `json:"pio,omitempty"`
}

// WorkloadSpec selects a workload kind and its parameters.
type WorkloadSpec struct {
	// Kind is "stream", "heat", "heat2d", or "matvec".
	Kind string `json:"kind"`
	// Seed seeds the workload's own content (stream only).
	Seed uint64 `json:"seed,omitempty"`
	// Size is the workload dimension: block length (stream), grid cells
	// per side (heat/heat2d), vector length (matvec).
	Size int `json:"size"`
	// Alpha is the diffusion coefficient (heat: (0, 0.5], heat2d:
	// (0, 0.25]); ignored by other kinds.
	Alpha float64 `json:"alpha,omitempty"`
}

// FaultsSpec composes the error processes.
type FaultsSpec struct {
	// Silent is the silent-error inter-arrival process (nil: none).
	Silent *DistSpec `json:"silent,omitempty"`
	// FailStop is the fail-stop inter-arrival process (nil: none). With
	// Nodes > 0 an exponential rate is the platform total, split evenly
	// per node; non-exponential families are per-node processes.
	FailStop *DistSpec `json:"failstop,omitempty"`
	// Nodes > 0 models a multi-node platform with per-node fail-stop
	// processes and node attribution.
	Nodes int `json:"nodes,omitempty"`
	// Correlation adds correlated multi-node burst failures.
	Correlation *CorrelationSpec `json:"correlation,omitempty"`
}

// CorrelationSpec is the correlated-burst channel: arrivals of Burst
// fell a random primary victim and every other node independently with
// probability Spread. Requires Nodes ≥ 2.
type CorrelationSpec struct {
	Burst  DistSpec `json:"burst"`
	Spread float64  `json:"spread"`
}

// Dist kind names.
const (
	DistExponential = "exponential"
	DistWeibull     = "weibull"
	DistLogNormal   = "lognormal"
	DistTrace       = "trace"
)

// DistSpec describes one inter-arrival distribution (or a recorded
// trace). Only the knobs of the chosen family may be set.
type DistSpec struct {
	// Dist is "exponential", "weibull", "lognormal", or "trace".
	Dist string `json:"dist"`
	// Rate is the exponential rate (per second).
	Rate float64 `json:"rate,omitempty"`
	// Shape and Scale are the Weibull k and λ.
	Shape float64 `json:"shape,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// Mu and Sigma parameterize the log-normal.
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Times are the trace arrivals (absolute seconds of exposure).
	Times []float64 `json:"times,omitempty"`
	// CSV references a fault log file (trace.ReadFaultCSV format),
	// resolvable only when parsing from a directory (ParseFile /
	// ParseOptions.CSVDir); resolution inlines the channel into Times so
	// the canonical hash covers the actual arrivals.
	CSV string `json:"csv,omitempty"`
}

// CheckpointSpec selects the checkpoint tier.
type CheckpointSpec struct {
	// Tier is "single" or "two-level".
	Tier string `json:"tier"`
	// MemC, DiskC, DiskR configure the two-level tier.
	MemC  *Quantity `json:"mem_c,omitempty"`
	DiskC *Quantity `json:"disk_c,omitempty"`
	DiskR *Quantity `json:"disk_r,omitempty"`
	// Every is k ≥ 1: a disk checkpoint every k-th pattern.
	Every int `json:"every,omitempty"`
}

// VerificationSpec selects the verification discipline.
type VerificationSpec struct {
	// Mode is "guaranteed", "partial", or "none".
	Mode string `json:"mode"`
	// Segments, Coverage and Cost configure partial verification.
	Segments int       `json:"segments,omitempty"`
	Coverage float64   `json:"coverage,omitempty"`
	Cost     *Quantity `json:"cost,omitempty"`
}

// Quantity is a cost in seconds, either absolute (a JSON number) or
// relative to a platform base: {"of":"C","scale":0.25} is a quarter of
// the platform's checkpoint cost. Scale 0 means 1.
type Quantity struct {
	Abs   float64
	Of    string
	Scale float64
}

// UnmarshalJSON accepts a number (absolute) or a strict {of, scale}
// object (relative). DisallowUnknownFields does not propagate into
// custom unmarshalers, so the object form runs its own strict decoder.
func (q *Quantity) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return fmt.Errorf("spec: empty quantity")
	}
	if trimmed[0] != '{' {
		var x float64
		if err := json.Unmarshal(trimmed, &x); err != nil {
			return fmt.Errorf("spec: quantity must be a number or {of, scale} object: %w", err)
		}
		*q = Quantity{Abs: x}
		return nil
	}
	var obj struct {
		Of    string   `json:"of"`
		Scale *float64 `json:"scale"`
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		return fmt.Errorf("spec: quantity object: %w", err)
	}
	out := Quantity{Of: obj.Of}
	if obj.Scale != nil {
		out.Scale = *obj.Scale
	}
	*q = out
	return nil
}

// MarshalJSON emits the canonical form: a bare number when absolute,
// the {of, scale} object when relative (scale omitted when 0).
func (q Quantity) MarshalJSON() ([]byte, error) {
	if q.Of == "" {
		return json.Marshal(q.Abs)
	}
	obj := struct {
		Of    string   `json:"of"`
		Scale *float64 `json:"scale,omitempty"`
	}{Of: q.Of}
	if q.Scale != 0 {
		obj.Scale = &q.Scale
	}
	return json.Marshal(obj)
}

// Validate checks the quantity's own consistency.
func (q Quantity) Validate() error {
	switch q.Of {
	case "":
		if q.Scale != 0 {
			return fmt.Errorf("spec: quantity scale needs an \"of\" base")
		}
		if math.IsNaN(q.Abs) || math.IsInf(q.Abs, 0) || q.Abs < 0 {
			return fmt.Errorf("spec: quantity must be finite and non-negative (got %g)", q.Abs)
		}
	case "C", "V", "R":
		if q.Abs != 0 {
			return fmt.Errorf("spec: quantity cannot be both absolute and relative to %s", q.Of)
		}
		if math.IsNaN(q.Scale) || math.IsInf(q.Scale, 0) || q.Scale < 0 {
			return fmt.Errorf("spec: quantity scale must be finite and non-negative (got %g)", q.Scale)
		}
	default:
		return fmt.Errorf("spec: quantity base must be C, V or R (got %q)", q.Of)
	}
	return nil
}

// Resolve evaluates the quantity against platform params. The quantity
// must already be valid.
func (q Quantity) Resolve(p core.Params) float64 {
	var base float64
	switch q.Of {
	case "":
		return q.Abs
	case "C":
		base = p.C
	case "V":
		base = p.V
	case "R":
		base = p.R
	}
	scale := q.Scale
	if scale == 0 {
		scale = 1
	}
	return base * scale
}

// ParseOptions configures Parse.
type ParseOptions struct {
	// CSVDir, when non-empty, is the directory CSV trace references are
	// resolved against. Empty (the default, and always for network
	// input) rejects any csv reference.
	CSVDir string
}

// Parse decodes and validates a spec from JSON. Unknown fields are
// rejected with the offending name; CSV references are rejected (use
// ParseWith or ParseFile for file-based specs).
func Parse(data []byte) (ScenarioSpec, error) {
	return ParseWith(data, ParseOptions{})
}

// ParseWith is Parse with options.
func ParseWith(data []byte, opts ParseOptions) (ScenarioSpec, error) {
	var s ScenarioSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return ScenarioSpec{}, fmt.Errorf("spec: decode: %w", err)
	}
	// A spec is one JSON document; trailing content is a client error.
	if dec.More() {
		return ScenarioSpec{}, fmt.Errorf("spec: trailing data after spec document")
	}
	if opts.CSVDir != "" {
		if err := s.resolveCSV(opts.CSVDir); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if err := s.Validate(); err != nil {
		return ScenarioSpec{}, err
	}
	return s, nil
}

// ParseFile reads and parses a spec file, resolving CSV trace
// references relative to the file's directory.
func ParseFile(path string) (ScenarioSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("spec: %w", err)
	}
	return ParseWith(data, ParseOptions{CSVDir: filepath.Dir(path)})
}

// resolveCSV inlines every CSV trace reference: the referenced fault
// log is read once and each referencing channel receives its times,
// after which the reference is cleared — the canonical form (and hence
// the spec hash) always covers the actual arrivals.
func (s *ScenarioSpec) resolveCSV(dir string) error {
	logs := map[string]trace.FaultLog{}
	load := func(ref string) (trace.FaultLog, error) {
		if log, ok := logs[ref]; ok {
			return log, nil
		}
		clean := filepath.Clean(ref)
		if filepath.IsAbs(clean) || strings.HasPrefix(clean, "..") {
			return trace.FaultLog{}, fmt.Errorf("spec: csv reference %q must stay inside the spec directory", ref)
		}
		f, err := os.Open(filepath.Join(dir, clean))
		if err != nil {
			return trace.FaultLog{}, fmt.Errorf("spec: %w", err)
		}
		defer f.Close()
		log, err := trace.ReadFaultCSV(f)
		if err != nil {
			return trace.FaultLog{}, err
		}
		logs[ref] = log
		return log, nil
	}
	resolve := func(d *DistSpec, channel func(trace.FaultLog) []float64) error {
		if d == nil || d.CSV == "" {
			return nil
		}
		if d.Dist != DistTrace {
			return fmt.Errorf("spec: csv reference on non-trace dist %q", d.Dist)
		}
		if len(d.Times) > 0 {
			return fmt.Errorf("spec: trace dist cannot set both times and csv")
		}
		log, err := load(d.CSV)
		if err != nil {
			return err
		}
		d.Times = channel(log)
		d.CSV = ""
		return nil
	}
	if err := resolve(s.Faults.Silent, func(l trace.FaultLog) []float64 { return l.Silent }); err != nil {
		return err
	}
	return resolve(s.Faults.FailStop, func(l trace.FaultLog) []float64 { return l.FailStop })
}

// Canonical returns the spec's canonical JSON encoding: a fixed field
// order (struct declaration order) with quantities in normal form.
// Parse(Canonical(s)) round-trips to an identical canonical form.
func Canonical(s ScenarioSpec) ([]byte, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("spec: canonicalize: %w", err)
	}
	return data, nil
}

// Hash returns the FNV-64a hash of the canonical encoding, the cache
// identity of a spec.
func Hash(s ScenarioSpec) (string, error) {
	data, err := Canonical(s)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Workload kind names.
var workloadKinds = []string{"stream", "heat", "heat2d", "matvec"}

// maxCells bounds the float64 cells of a heat, heat2d or matvec state.
// A state serializes to 8·(cells+2) bytes (the values, then the frac and
// done trailer), and above engine.MaxReferenceBytes not even a
// one-pattern trajectory could hold it. maxSide is the largest heat2d n
// with n² ≤ maxCells: Validate compares n with it, never n² with
// maxCells, so the check cannot overflow a 32-bit int.
const maxCells = engine.MaxReferenceBytes/8 - 2

var maxSide = int(math.Sqrt(maxCells))

// Validate checks the whole spec without compiling it. Every check a
// compile target would panic on (workload constructor preconditions,
// distribution parameters) is pre-checked here, which is what makes
// "malformed specs never panic" hold.
func (s ScenarioSpec) Validate() error {
	if s.Version != SchemaVersion {
		return fmt.Errorf("spec: unsupported version %d (this build speaks %d)", s.Version, SchemaVersion)
	}
	if !(s.Plan.W > 0) || math.IsInf(s.Plan.W, 0) {
		return fmt.Errorf("spec: plan.w must be positive and finite")
	}
	if !(s.Plan.Sigma1 > 0) || !(s.Plan.Sigma2 > 0) || math.IsInf(s.Plan.Sigma1, 0) || math.IsInf(s.Plan.Sigma2, 0) {
		return fmt.Errorf("spec: plan.sigma1 and plan.sigma2 must be positive and finite")
	}
	if !(s.TotalWork > 0) || math.IsInf(s.TotalWork, 0) {
		return fmt.Errorf("spec: total_work must be positive and finite")
	}
	if n := s.TotalWork / s.Plan.W; n > engine.MaxPatterns {
		return fmt.Errorf("spec: total_work / plan.w is %g patterns, above the %d one run can hold", n, engine.MaxPatterns)
	}
	if s.Costs != nil {
		for name, q := range map[string]*Quantity{"c": s.Costs.C, "v": s.Costs.V, "r": s.Costs.R} {
			if q == nil {
				continue
			}
			if err := q.Validate(); err != nil {
				return fmt.Errorf("spec: costs.%s: %w", name, err)
			}
		}
	}
	if s.Energy != nil {
		for name, v := range map[string]*float64{"kappa": s.Energy.Kappa, "pidle": s.Energy.Pidle, "pio": s.Energy.Pio} {
			if v == nil {
				continue
			}
			if math.IsNaN(*v) || math.IsInf(*v, 0) || *v < 0 {
				return fmt.Errorf("spec: energy.%s must be finite and non-negative (got %g)", name, *v)
			}
		}
	}
	if err := s.validateWorkload(); err != nil {
		return err
	}
	if err := s.Faults.validate(); err != nil {
		return err
	}
	if err := s.validateCheckpoint(); err != nil {
		return err
	}
	return s.validateVerification()
}

func (s ScenarioSpec) validateWorkload() error {
	w := s.Workload
	if w == nil {
		return nil
	}
	switch w.Kind {
	case "stream":
		if w.Size < 1 {
			return fmt.Errorf("spec: stream workload needs size ≥ 1 (got %d)", w.Size)
		}
	case "heat":
		if w.Size < 3 || w.Size > maxCells {
			return fmt.Errorf("spec: heat workload needs workload.size in [3, %d] (got %d)", maxCells, w.Size)
		}
		if !(w.Alpha > 0) || w.Alpha > 0.5 {
			return fmt.Errorf("spec: heat workload needs alpha in (0, 0.5] (got %g)", w.Alpha)
		}
	case "heat2d":
		if w.Size < 3 || w.Size > maxSide {
			return fmt.Errorf("spec: heat2d workload needs workload.size in [3, %d] (got %d)", maxSide, w.Size)
		}
		if !(w.Alpha > 0) || w.Alpha > 0.25 {
			return fmt.Errorf("spec: heat2d workload needs alpha in (0, 0.25] (got %g)", w.Alpha)
		}
	case "matvec":
		if w.Size < 2 || w.Size > maxCells {
			return fmt.Errorf("spec: matvec workload needs workload.size in [2, %d] (got %d)", maxCells, w.Size)
		}
	default:
		return fmt.Errorf("spec: workload kind must be one of %s (got %q)",
			strings.Join(workloadKinds, ", "), w.Kind)
	}
	return nil
}

// validate checks one distribution spec: the chosen family's knobs are
// valid and no foreign knobs are set (a misspelled family would
// otherwise silently ignore its parameters).
func (d DistSpec) validate(field string) error {
	type knob struct {
		name string
		set  bool
	}
	knobs := []knob{
		{"rate", d.Rate != 0},
		{"shape", d.Shape != 0},
		{"scale", d.Scale != 0},
		{"mu", d.Mu != 0},
		{"sigma", d.Sigma != 0},
		{"times", len(d.Times) > 0},
		{"csv", d.CSV != ""},
	}
	allowed := map[string][]string{
		DistExponential: {"rate"},
		DistWeibull:     {"shape", "scale"},
		DistLogNormal:   {"mu", "sigma"},
		DistTrace:       {"times", "csv"},
	}
	own, ok := allowed[d.Dist]
	if !ok {
		return fmt.Errorf("spec: %s.dist must be %s, %s, %s or %s (got %q)",
			field, DistExponential, DistWeibull, DistLogNormal, DistTrace, d.Dist)
	}
	for _, k := range knobs {
		if !k.set {
			continue
		}
		foreign := true
		for _, o := range own {
			if k.name == o {
				foreign = false
				break
			}
		}
		if foreign {
			return fmt.Errorf("spec: %s: %q does not apply to the %s distribution", field, k.name, d.Dist)
		}
	}
	switch d.Dist {
	case DistExponential:
		if err := (faults.Exponential{Rate: d.Rate}).Validate(); err != nil {
			return fmt.Errorf("spec: %s: %w", field, err)
		}
	case DistWeibull:
		if err := (faults.Weibull{Shape: d.Shape, Scale: d.Scale}).Validate(); err != nil {
			return fmt.Errorf("spec: %s: %w", field, err)
		}
	case DistLogNormal:
		if err := (faults.LogNormal{Mu: d.Mu, Sigma: d.Sigma}).Validate(); err != nil {
			return fmt.Errorf("spec: %s: %w", field, err)
		}
	case DistTrace:
		if d.CSV != "" {
			return fmt.Errorf("spec: %s: csv references are only resolvable when parsing from a file or directory; inline the times instead", field)
		}
		if err := faults.ValidateArrivalTimes(d.Times); err != nil {
			return fmt.Errorf("spec: %s: %w", field, err)
		}
	}
	return nil
}

func (f FaultsSpec) validate() error {
	if f.Nodes < 0 || f.Nodes > engine.MaxNodes {
		return fmt.Errorf("spec: faults.nodes must be in [0, %d] (got %d)", engine.MaxNodes, f.Nodes)
	}
	if f.Silent == nil && f.FailStop == nil && f.Correlation == nil {
		return fmt.Errorf("spec: faults needs at least one of silent, failstop, correlation")
	}
	if f.Silent != nil {
		if err := f.Silent.validate("faults.silent"); err != nil {
			return err
		}
	}
	if f.FailStop != nil {
		if err := f.FailStop.validate("faults.failstop"); err != nil {
			return err
		}
	}
	traced := (f.Silent != nil && f.Silent.Dist == DistTrace) ||
		(f.FailStop != nil && f.FailStop.Dist == DistTrace)
	if traced && f.Nodes > 0 {
		return fmt.Errorf("spec: trace replay drives the aggregate channels; faults.nodes must be 0")
	}
	if f.Correlation != nil {
		if f.Nodes < 2 {
			return fmt.Errorf("spec: faults.correlation needs nodes ≥ 2 (got %d)", f.Nodes)
		}
		if err := f.Correlation.Burst.validate("faults.correlation.burst"); err != nil {
			return err
		}
		if math.IsNaN(f.Correlation.Spread) || f.Correlation.Spread < 0 || f.Correlation.Spread > 1 {
			return fmt.Errorf("spec: faults.correlation.spread must be in [0, 1] (got %g)", f.Correlation.Spread)
		}
	}
	return nil
}

func (s ScenarioSpec) validateCheckpoint() error {
	cp := s.Checkpoint
	if cp == nil {
		return nil
	}
	switch cp.Tier {
	case "single":
		if cp.MemC != nil || cp.DiskC != nil || cp.DiskR != nil || cp.Every != 0 {
			return fmt.Errorf("spec: checkpoint tier %q takes no two-level knobs", cp.Tier)
		}
	case "two-level":
		for name, q := range map[string]*Quantity{"mem_c": cp.MemC, "disk_c": cp.DiskC, "disk_r": cp.DiskR} {
			if q == nil {
				return fmt.Errorf("spec: two-level checkpointing requires checkpoint.%s", name)
			}
			if err := q.Validate(); err != nil {
				return fmt.Errorf("spec: checkpoint.%s: %w", name, err)
			}
		}
		if cp.Every < 1 {
			return fmt.Errorf("spec: checkpoint.every must be ≥ 1 (got %d)", cp.Every)
		}
		n := s.TotalWork / s.Plan.W
		if n != float64(int(n)) {
			return fmt.Errorf("spec: total_work (%g) must be a whole multiple of plan.w (%g) under two-level checkpointing", s.TotalWork, s.Plan.W)
		}
	default:
		return fmt.Errorf("spec: checkpoint.tier must be \"single\" or \"two-level\" (got %q)", cp.Tier)
	}
	return nil
}

func (s ScenarioSpec) validateVerification() error {
	v := s.Verification
	if v == nil {
		return nil
	}
	switch v.Mode {
	case "guaranteed", "none":
		if v.Segments != 0 || v.Coverage != 0 || v.Cost != nil {
			return fmt.Errorf("spec: verification mode %q takes no partial knobs", v.Mode)
		}
	case "partial":
		if v.Segments < 2 {
			return fmt.Errorf("spec: partial verification needs segments ≥ 2 (got %d)", v.Segments)
		}
		if !(v.Coverage > 0) || v.Coverage > 1 {
			return fmt.Errorf("spec: partial verification needs coverage in (0, 1] (got %g)", v.Coverage)
		}
		if v.Cost == nil {
			return fmt.Errorf("spec: partial verification requires a cost")
		}
		if err := v.Cost.Validate(); err != nil {
			return fmt.Errorf("spec: verification.cost: %w", err)
		}
	default:
		return fmt.Errorf("spec: verification.mode must be \"guaranteed\", \"partial\" or \"none\" (got %q)", v.Mode)
	}
	return nil
}
