// Package jobs is respeed's crash-safe asynchronous campaign subsystem.
//
// A job is a named campaign — a σ1×σ2 grid solve, a ρ-sweep, or a
// Monte-Carlo replication study over one or many platform configs (the
// material behind the paper's tables and figures) — that is too large
// for one synchronous request. The subsystem applies the repo's own
// subject matter to itself, exactly as the checkpoint-restart literature
// prescribes for long-running work:
//
//   - the campaign is sharded into deterministic chunks (Monte-Carlo
//     cells reuse the engine's seed-pinned 64-chunk fan-out, so results
//     are bit-identical for any worker count or interleaving);
//   - a bounded worker pool executes shards with per-shard retry and
//     exponential backoff;
//   - every completed shard is appended to a CRC-framed JSONL journal
//     and fsynced — the "checkpoint" — so a killed process resumes from
//     the journal and re-executes only the shards that were in flight;
//   - a finished job is snapshotted atomically (temp file + rename) and
//     its journal retired.
//
// A job resumed after a crash produces byte-identical results (and an
// identical result hash) to the same job run uninterrupted.
package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/platform"
	"respeed/internal/spec"
)

// Kind selects the campaign family.
type Kind string

const (
	// KindGrid evaluates the full σ1×σ2 pair grid (the paper's Section
	// 4.2 tables) for every config×ρ cell.
	KindGrid Kind = "grid"
	// KindSweep solves the BiCrit optimum and two-speed gain at every
	// config×ρ cell — a ρ-sweep when Rhos is a dense list.
	KindSweep Kind = "sweep"
	// KindMonteCarlo replicates N pattern simulations per config×ρ cell,
	// sharded on the engine's deterministic chunk fan-out.
	KindMonteCarlo Kind = "montecarlo"
	// KindSpec replicates a declarative scenario spec N times per
	// config, sharded on the engine's scenario chunk fan-out. The spec
	// fixes its own plan, so spec campaigns take no rhos.
	KindSpec Kind = "spec"
)

// maxMonteCarloN caps replications per cell; the full campaign may still
// multiply this across many cells.
const maxMonteCarloN = 10_000_000

// maxSpecN caps spec-campaign replications per config: scenario runs
// drive a real state-carrying workload, so they are orders of magnitude
// more expensive than abstract pattern replications.
const maxSpecN = 100_000

// maxCampaignCells bounds the config×ρ cross product of one campaign.
const maxCampaignCells = 4096

// Campaign is a job specification. It is fully serializable: the journal
// records the normalized campaign verbatim, and a resumed job re-plans
// its shards from that record alone.
type Campaign struct {
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`
	// Kind selects the campaign family.
	Kind Kind `json:"kind"`
	// Configs names catalog configurations; empty selects the whole
	// catalog (resolved and pinned at submit time).
	Configs []string `json:"configs,omitempty"`
	// Rhos are the performance bounds to evaluate, one cell per
	// config×ρ combination.
	Rhos []float64 `json:"rhos"`
	// N is the replication count per cell (montecarlo: default 10000;
	// spec: default 100).
	N int `json:"n,omitempty"`
	// Seed is the replication master seed (montecarlo and spec only;
	// default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Spec is the declarative scenario document of a spec campaign.
	Spec *spec.ScenarioSpec `json:"spec,omitempty"`
}

// normalize validates the campaign and pins defaults: empty Configs
// resolves to the full catalog, montecarlo N/Seed get their defaults.
// The returned campaign is what gets journaled, so resume never depends
// on catalog evolution or default drift.
func (c Campaign) normalize() (Campaign, error) {
	if c.Kind != KindSpec && c.Spec != nil {
		return Campaign{}, fmt.Errorf("jobs: spec applies to spec campaigns only")
	}
	switch c.Kind {
	case KindGrid, KindSweep:
		if c.N != 0 || c.Seed != 0 {
			return Campaign{}, fmt.Errorf("jobs: n and seed apply to montecarlo and spec campaigns only")
		}
	case KindMonteCarlo:
		if c.N == 0 {
			c.N = 10_000
		}
		if c.N < 2 || c.N > maxMonteCarloN {
			return Campaign{}, fmt.Errorf("jobs: montecarlo n must be in [2, %d] (got %d)", maxMonteCarloN, c.N)
		}
		if c.Seed == 0 {
			c.Seed = 1
		}
	case KindSpec:
		if c.Spec == nil {
			return Campaign{}, fmt.Errorf("jobs: spec campaign needs a spec document")
		}
		if len(c.Rhos) != 0 {
			return Campaign{}, fmt.Errorf("jobs: rhos do not apply to spec campaigns (the spec fixes its own plan)")
		}
		if err := c.Spec.Validate(); err != nil {
			return Campaign{}, fmt.Errorf("jobs: %w", err)
		}
		if c.N == 0 {
			c.N = 100
		}
		if c.N < 2 || c.N > maxSpecN {
			return Campaign{}, fmt.Errorf("jobs: spec n must be in [2, %d] (got %d)", maxSpecN, c.N)
		}
		if c.Seed == 0 {
			c.Seed = 1
		}
	default:
		return Campaign{}, fmt.Errorf("jobs: unknown campaign kind %q (use grid, sweep, montecarlo or spec)", c.Kind)
	}
	if len(c.Configs) == 0 {
		c.Configs = platform.Names()
	}
	for _, name := range c.Configs {
		cfg, ok := platform.ByName(name)
		if !ok {
			return Campaign{}, fmt.Errorf("jobs: unknown configuration %q", name)
		}
		// A spec must compile for every pinned config at submit time, so
		// a campaign never fails shard-by-shard on a bad combination.
		if c.Kind == KindSpec {
			if _, err := c.Spec.Compile(spec.EnvFor(cfg)); err != nil {
				return Campaign{}, fmt.Errorf("jobs: spec does not compile for %q: %w", name, err)
			}
		}
	}
	if c.Kind == KindSpec {
		if len(c.Configs) > maxCampaignCells {
			return Campaign{}, fmt.Errorf("jobs: campaign spans %d cells, max %d", len(c.Configs), maxCampaignCells)
		}
		return c, nil
	}
	if len(c.Rhos) == 0 {
		return Campaign{}, fmt.Errorf("jobs: campaign needs at least one rho")
	}
	for i, rho := range c.Rhos {
		if math.IsNaN(rho) || math.IsInf(rho, 0) || rho <= 0 {
			return Campaign{}, fmt.Errorf("jobs: rhos[%d] must be a positive finite number (got %g)", i, rho)
		}
	}
	if cells := len(c.Configs) * len(c.Rhos); cells > maxCampaignCells {
		return Campaign{}, fmt.Errorf("jobs: campaign spans %d cells, max %d", cells, maxCampaignCells)
	}
	return c, nil
}

// ShardPlan locates one shard of a campaign. Grid/sweep campaigns have
// one shard per config×ρ cell (Chunk = -1); Monte-Carlo and spec
// campaigns shard each cell into the engine's deterministic chunks, with
// [Lo, Hi) the chunk's replication index range. The type is exported
// (and fully serializable) because the fleet layer ships shards to peer
// daemons over HTTP: a shard is a pure function of (campaign, plan), so
// WHERE it executes never changes the bytes it produces.
type ShardPlan struct {
	Config string  `json:"config"`
	Rho    float64 `json:"rho,omitempty"`
	Chunk  int     `json:"chunk"`
	Lo     int     `json:"lo,omitempty"`
	Hi     int     `json:"hi,omitempty"`
}

// planShards enumerates the campaign's shards in canonical order:
// configs-order × rhos-order × chunk-order. The enumeration is a pure
// function of the normalized campaign, so a resumed job re-derives the
// identical plan.
func (c Campaign) planShards() []ShardPlan {
	var shards []ShardPlan
	for _, cfg := range c.Configs {
		if c.Kind == KindSpec {
			// One cell per config (Rho stays 0 — the spec fixes the
			// plan), sharded into the engine's deterministic chunks.
			chunks := engine.ChunkCount(c.N)
			for ch := 0; ch < chunks; ch++ {
				lo, hi := engine.ChunkBounds(c.N, chunks, ch)
				shards = append(shards, ShardPlan{Config: cfg, Chunk: ch, Lo: lo, Hi: hi})
			}
			continue
		}
		for _, rho := range c.Rhos {
			if c.Kind != KindMonteCarlo {
				shards = append(shards, ShardPlan{Config: cfg, Rho: rho, Chunk: -1})
				continue
			}
			chunks := engine.ChunkCount(c.N)
			for ch := 0; ch < chunks; ch++ {
				lo, hi := engine.ChunkBounds(c.N, chunks, ch)
				shards = append(shards, ShardPlan{Config: cfg, Rho: rho, Chunk: ch, Lo: lo, Hi: hi})
			}
		}
	}
	return shards
}

// ValidateShard checks that sp is one of c's planned shards and returns
// the normalized campaign to execute it under. It is the worker-side
// admission check of the fleet layer: a daemon accepting a remote shard
// must not trust the coordinator's framing, so membership (config, ρ)
// and chunk geometry (chunk index, [Lo, Hi) bounds) are re-derived from
// the campaign itself and compared field by field.
func (c Campaign) ValidateShard(sp ShardPlan) (Campaign, error) {
	norm, err := c.normalize()
	if err != nil {
		return Campaign{}, err
	}
	found := false
	for _, name := range norm.Configs {
		if name == sp.Config {
			found = true
			break
		}
	}
	if !found {
		return Campaign{}, fmt.Errorf("jobs: shard config %q is not in the campaign", sp.Config)
	}
	checkRho := func() error {
		for _, rho := range norm.Rhos {
			if rho == sp.Rho {
				return nil
			}
		}
		return fmt.Errorf("jobs: shard rho %g is not in the campaign", sp.Rho)
	}
	checkChunk := func() error {
		chunks := engine.ChunkCount(norm.N)
		if sp.Chunk < 0 || sp.Chunk >= chunks {
			return fmt.Errorf("jobs: shard chunk %d out of range [0, %d)", sp.Chunk, chunks)
		}
		lo, hi := engine.ChunkBounds(norm.N, chunks, sp.Chunk)
		if sp.Lo != lo || sp.Hi != hi {
			return fmt.Errorf("jobs: shard bounds [%d,%d) do not match chunk %d of n=%d (want [%d,%d))",
				sp.Lo, sp.Hi, sp.Chunk, norm.N, lo, hi)
		}
		return nil
	}
	switch norm.Kind {
	case KindGrid, KindSweep:
		if sp.Chunk != -1 || sp.Lo != 0 || sp.Hi != 0 {
			return Campaign{}, fmt.Errorf("jobs: %s shards carry no chunk range", norm.Kind)
		}
		if err := checkRho(); err != nil {
			return Campaign{}, err
		}
	case KindMonteCarlo:
		if err := checkRho(); err != nil {
			return Campaign{}, err
		}
		if err := checkChunk(); err != nil {
			return Campaign{}, err
		}
	case KindSpec:
		if sp.Rho != 0 {
			return Campaign{}, fmt.Errorf("jobs: spec shards carry no rho (got %g)", sp.Rho)
		}
		if err := checkChunk(); err != nil {
			return Campaign{}, err
		}
	}
	return norm, nil
}

// ExecShard executes one shard of a normalized campaign and returns its
// journal-encoding bytes — exactly the record a local worker would have
// journaled, so a result assembled from remotely executed shards is
// byte-identical to a single-process run. Callers that receive the
// campaign over the network must go through ValidateShard first.
func ExecShard(ctx context.Context, c Campaign, sp ShardPlan) (json.RawMessage, error) {
	sr, err := c.runShard(ctx, sp)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sr)
}

// shardResult is the journaled outcome of one shard. Exactly one of the
// payload fields is set (Infeasible counts as a payload for Monte-Carlo
// shards whose cell admits no plan).
type shardResult struct {
	// Infeasible marks a cell with no feasible speed pair at its ρ.
	Infeasible bool `json:"infeasible,omitempty"`
	// Cell is a grid or sweep cell outcome.
	Cell *CellSolution `json:"cell,omitempty"`
	// Chunk is a Monte-Carlo partial estimate.
	Chunk *engine.ChunkEstimate `json:"chunk,omitempty"`
}

// CellSolution is the solver outcome of one grid/sweep cell.
type CellSolution struct {
	// Best is the energy-minimizing feasible pair.
	Best core.PairResult `json:"best"`
	// Pairs is the full σ1×σ2 grid (grid campaigns only).
	Pairs []core.PairResult `json:"pairs,omitempty"`
	// Gain is the two-speed energy gain over the single-speed optimum
	// (sweep campaigns only).
	Gain *float64 `json:"gain,omitempty"`
}

// cellOf resolves a shard's platform parameters and the process-wide
// precomputed solver grid for them. The config was validated at submit;
// a vanished config (journal from a different build) is reported, not
// assumed. The memoized grid is what keeps a Monte-Carlo cell's 64
// chunk shards (and assemble's final pass) from re-deriving the same
// solve 65 times.
func cellOf(sp ShardPlan) (platform.Config, *core.PairGrid, error) {
	cfg, ok := platform.ByName(sp.Config)
	if !ok {
		return platform.Config{}, nil, fmt.Errorf("jobs: configuration %q not in catalog", sp.Config)
	}
	g, err := core.GridFor(core.FromConfig(cfg), cfg.Processor.Speeds)
	if err != nil {
		return platform.Config{}, nil, err
	}
	return cfg, g, nil
}

// runShard executes one shard. Shards are pure functions of
// (campaign, shard plan): re-executing a shard after a crash or retry
// yields byte-identical journal records. A cancelled ctx aborts a
// Monte-Carlo shard mid-chunk and surfaces the context's error.
func (c Campaign) runShard(ctx context.Context, sp ShardPlan) (shardResult, error) {
	if c.Kind == KindSpec {
		cfg, ok := platform.ByName(sp.Config)
		if !ok {
			return shardResult{}, fmt.Errorf("jobs: configuration %q not in catalog", sp.Config)
		}
		sc, err := c.Spec.Compile(spec.EnvFor(cfg))
		if err != nil {
			return shardResult{}, err
		}
		// The campaign seed is used directly — not a per-cell derivation
		// — so a cell's merged estimate is bit-identical to
		// engine.ReplicateScenario(sc, c.Seed, c.N, ...) run in one
		// piece. Compile already validated the scenario, so the shard
		// skips re-validating it on every chunk.
		ce, err := engine.ReplicateScenarioChunkValidatedCtx(ctx, sc, c.Seed, sp.Lo, sp.Hi)
		if err != nil {
			return shardResult{}, err
		}
		return shardResult{Chunk: &ce}, nil
	}
	cfg, g, err := cellOf(sp)
	if err != nil {
		return shardResult{}, err
	}
	sol, solveErr := g.Solve(sp.Rho)
	switch c.Kind {
	case KindGrid:
		if solveErr != nil && solveErr != core.ErrInfeasible {
			return shardResult{}, solveErr
		}
		cell := &CellSolution{Best: sol.Best, Pairs: sol.Pairs}
		return shardResult{Infeasible: solveErr != nil, Cell: cell}, nil
	case KindSweep:
		if solveErr == core.ErrInfeasible {
			return shardResult{Infeasible: true}, nil
		}
		if solveErr != nil {
			return shardResult{}, solveErr
		}
		gain, err := g.TwoSpeedGain(sp.Rho)
		if err != nil {
			return shardResult{}, err
		}
		return shardResult{Cell: &CellSolution{Best: sol.Best, Gain: &gain}}, nil
	case KindMonteCarlo:
		if solveErr == core.ErrInfeasible {
			return shardResult{Infeasible: true}, nil
		}
		if solveErr != nil {
			return shardResult{}, solveErr
		}
		p := g.Params()
		plan := engine.Plan{W: sol.Best.W, Sigma1: sol.Best.Sigma1, Sigma2: sol.Best.Sigma2}
		costs := engine.Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda}
		model := energy.Model{Kappa: cfg.Processor.Kappa, Pidle: cfg.Processor.Pidle, Pio: cfg.Pio}
		seed := c.cellSeed(sp.Config, sp.Rho)
		ce, err := engine.ReplicatePatternChunkCtx(ctx, plan, costs, model, seed, sp.Chunk, sp.Lo, sp.Hi)
		if err != nil {
			return shardResult{}, err
		}
		return shardResult{Chunk: &ce}, nil
	default:
		return shardResult{}, fmt.Errorf("jobs: unknown campaign kind %q", c.Kind)
	}
}

// cellSeed derives the per-cell Monte-Carlo seed from the campaign seed
// and the cell coordinates with FNV-64a, so distinct cells draw
// independent substreams while staying deterministic in the spec.
func (c Campaign) cellSeed(config string, rho float64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", c.Seed, config, canonicalFloat(rho))
	return h.Sum64()
}

// canonicalFloat renders a float in shortest round-trip form, the same
// canonicalization the serve cache uses.
func canonicalFloat(x float64) string {
	b, _ := json.Marshal(x)
	return string(b)
}

// CellOutcome is one config×ρ cell of a finished campaign.
type CellOutcome struct {
	Config     string  `json:"config"`
	Rho        float64 `json:"rho"`
	Infeasible bool    `json:"infeasible,omitempty"`
	// Best/Pairs/Gain carry solver outcomes (grid and sweep campaigns,
	// and the plan backing a Monte-Carlo cell).
	Best  *core.PairResult  `json:"best,omitempty"`
	Pairs []core.PairResult `json:"pairs,omitempty"`
	Gain  *float64          `json:"gain,omitempty"`
	// Estimate is the merged Monte-Carlo aggregate (montecarlo only).
	Estimate *engine.Estimate `json:"estimate,omitempty"`
}

// Result is a finished campaign: every cell in canonical order plus a
// content hash over the cells, so two runs of the same campaign —
// interrupted or not — can be compared by one string.
type Result struct {
	ID       string        `json:"id"`
	Campaign Campaign      `json:"campaign"`
	Cells    []CellOutcome `json:"cells"`
	// Hash is the FNV-64a digest of the canonical JSON encoding of
	// Cells, in hex.
	Hash string `json:"hash"`
}

// assemble folds the journaled shard results into the final Result.
// done maps shard index → journaled record bytes; every shard must be
// present. Decoding ALWAYS goes through the journal encoding (even for
// never-crashed jobs the manager journals first and assembles from the
// journal bytes), so interrupted and uninterrupted runs share one code
// path — Welford JSON round-trips losslessly, making the two
// byte-identical.
func (c Campaign) assemble(id string, shards []ShardPlan, done map[int]json.RawMessage) (Result, error) {
	type cellKey struct {
		config string
		rho    float64
	}
	results := make(map[int]shardResult, len(shards))
	for i := range shards {
		raw, ok := done[i]
		if !ok {
			return Result{}, fmt.Errorf("jobs: shard %d missing from journal", i)
		}
		var sr shardResult
		if err := json.Unmarshal(raw, &sr); err != nil {
			return Result{}, fmt.Errorf("jobs: decode shard %d: %w", i, err)
		}
		results[i] = sr
	}

	// Group Monte-Carlo chunks per cell, preserving shard (= chunk)
	// order within each cell.
	chunksByCell := make(map[cellKey][]engine.ChunkEstimate)
	for i, sp := range shards {
		if sr := results[i]; sr.Chunk != nil {
			k := cellKey{sp.Config, sp.Rho}
			chunksByCell[k] = append(chunksByCell[k], *sr.Chunk)
		}
	}

	var cells []CellOutcome
	seen := make(map[cellKey]bool)
	for i, sp := range shards {
		k := cellKey{sp.Config, sp.Rho}
		if seen[k] {
			continue
		}
		seen[k] = true
		sr := results[i]
		out := CellOutcome{Config: sp.Config, Rho: sp.Rho, Infeasible: sr.Infeasible}
		switch c.Kind {
		case KindGrid:
			if sr.Cell != nil {
				best := sr.Cell.Best
				out.Best, out.Pairs = &best, sr.Cell.Pairs
			}
		case KindSweep:
			if sr.Cell != nil {
				best := sr.Cell.Best
				out.Best, out.Gain = &best, sr.Cell.Gain
			}
		case KindSpec:
			est := engine.MergeChunkEstimates(c.Spec.TotalWork, c.N, chunksByCell[k])
			out.Estimate = &est
		case KindMonteCarlo:
			if !sr.Infeasible {
				_, g, err := cellOf(sp)
				if err != nil {
					return Result{}, err
				}
				sol, err := g.Solve(sp.Rho)
				if err != nil {
					return Result{}, fmt.Errorf("jobs: re-solve cell %s ρ=%g: %w", sp.Config, sp.Rho, err)
				}
				best := sol.Best
				est := engine.MergeChunkEstimates(best.W, c.N, chunksByCell[k])
				out.Best, out.Estimate = &best, &est
			}
		}
		cells = append(cells, out)
	}

	hash, err := hashCells(cells)
	if err != nil {
		return Result{}, err
	}
	return Result{ID: id, Campaign: c, Cells: cells, Hash: hash}, nil
}

// hashCells digests the canonical JSON of the cell outcomes.
func hashCells(cells []CellOutcome) (string, error) {
	data, err := json.Marshal(cells)
	if err != nil {
		return "", fmt.Errorf("jobs: hash result: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// sortedKinds lists the valid campaign kinds (for error messages and
// discovery endpoints).
func sortedKinds() []string {
	kinds := []string{string(KindGrid), string(KindSweep), string(KindMonteCarlo), string(KindSpec)}
	sort.Strings(kinds)
	return kinds
}
