package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/platform"
)

func waitDone(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v (state %s, %d/%d shards)", id, err, st.State, st.ShardsDone, st.ShardsTotal)
	}
	return st
}

func mustOpen(t *testing.T, opts Options) *Manager {
	t.Helper()
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("open manager: %v", err)
	}
	return m
}

func TestGridCampaignLifecycle(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir()})
	defer m.Close()

	st, err := m.Submit(Campaign{
		Name:    "tables",
		Kind:    KindGrid,
		Configs: []string{"Hera/XScale", "Atlas/Crusoe"},
		Rhos:    []float64{3, 5},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ShardsTotal != 4 {
		t.Fatalf("grid over 2 configs × 2 rhos should have 4 shards, got %d", st.ShardsTotal)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateDone || st.ShardsDone != 4 || st.Hash == "" {
		t.Fatalf("unexpected terminal status %+v", st)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("want 4 cells, got %d", len(res.Cells))
	}
	for _, cell := range res.Cells {
		if cell.Infeasible || cell.Best == nil || len(cell.Pairs) == 0 {
			t.Fatalf("grid cell %s ρ=%g incomplete: %+v", cell.Config, cell.Rho, cell)
		}
	}
	// The cell solution must match a direct solve.
	cfg, _ := platform.ByName("Hera/XScale")
	sol, err := core.FromConfig(cfg).Solve(cfg.Processor.Speeds, 3)
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	if *res.Cells[0].Best != sol.Best {
		t.Fatalf("cell best %+v != direct solve %+v", *res.Cells[0].Best, sol.Best)
	}
	if _, err := m.Status("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: got %v", err)
	}
}

func TestSweepCampaignInfeasibleCells(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir()})
	defer m.Close()

	// ρ=0.9 is below 1/σmax for every catalog processor: infeasible.
	st, err := m.Submit(Campaign{
		Kind:    KindSweep,
		Configs: []string{"Hera/XScale"},
		Rhos:    []float64{0.9, 3},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cells[0].Infeasible || res.Cells[0].Gain != nil {
		t.Fatalf("ρ=0.9 cell should be infeasible: %+v", res.Cells[0])
	}
	if res.Cells[1].Infeasible || res.Cells[1].Gain == nil || res.Cells[1].Best == nil {
		t.Fatalf("ρ=3 cell should carry best+gain: %+v", res.Cells[1])
	}
}

// TestMonteCarloMatchesReplicateParallel proves a campaign's merged
// estimate is bit-identical to the in-process chunked fan-out with the
// same derived seed — the shard layer adds no statistical drift.
func TestMonteCarloMatchesReplicateParallel(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir()})
	defer m.Close()

	camp := Campaign{Kind: KindMonteCarlo, Configs: []string{"Hera/XScale"}, Rhos: []float64{3}, N: 5000, Seed: 11}
	st, err := m.Submit(camp)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0]
	if cell.Estimate == nil || cell.Best == nil {
		t.Fatalf("montecarlo cell incomplete: %+v", cell)
	}

	cfg, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfg)
	sol, err := p.Solve(cfg.Processor.Speeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.Plan{W: sol.Best.W, Sigma1: sol.Best.Sigma1, Sigma2: sol.Best.Sigma2}
	costs := engine.Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda}
	model := energy.Model{Kappa: cfg.Processor.Kappa, Pidle: cfg.Processor.Pidle, Pio: cfg.Pio}
	norm, err := camp.normalize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReplicatePatternParallelCtx(context.Background(), plan, costs, model, norm.cellSeed("Hera/XScale", 3), 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*cell.Estimate, want) {
		t.Fatalf("campaign estimate diverged from direct replication:\ngot  %+v\nwant %+v", *cell.Estimate, want)
	}
}

// runToCompletion submits camp into a fresh manager over dir and returns
// the finished result.
func runToCompletion(t *testing.T, dir string, camp Campaign) Result {
	t.Helper()
	m := mustOpen(t, Options{Dir: dir})
	defer m.Close()
	st, err := m.Submit(camp)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// interruptAndResume submits camp, hard-stops the manager mid-run (no
// terminal state, like a crash that still let in-flight journal appends
// land), reopens the directory and returns the resumed job's result plus
// how many shards were done at the interruption point.
func interruptAndResume(t *testing.T, camp Campaign) (Result, int) {
	t.Helper()
	dir := t.TempDir()
	m1 := mustOpen(t, Options{Dir: dir, Workers: 2})
	m1.testShardDelay = func() { time.Sleep(2 * time.Millisecond) }
	st, err := m1.Submit(camp)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id := st.ID
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := m1.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if cur.ShardsDone >= 3 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before interruption (%d shards) — increase campaign size", cur.ShardsTotal)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close() // hard stop: job left non-terminal, journal on disk
	interrupted, err := m1.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.State.Terminal() {
		t.Fatalf("job reached terminal state %s before interruption", interrupted.State)
	}
	if interrupted.ShardsDone >= interrupted.ShardsTotal {
		t.Fatalf("all %d shards done before interruption — nothing left to resume", interrupted.ShardsTotal)
	}

	m2 := mustOpen(t, Options{Dir: dir})
	defer m2.Close()
	st2 := waitDone(t, m2, id)
	if st2.State != StateDone {
		t.Fatalf("resumed job ended %s: %s", st2.State, st2.Error)
	}
	res, err := m2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return res, interrupted.ShardsDone
}

func cellsJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r.Cells)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResumeDeterminismMonteCarlo is the acceptance property for the
// montecarlo kind: interrupted+resumed == uninterrupted, byte for byte.
func TestResumeDeterminismMonteCarlo(t *testing.T) {
	camp := Campaign{Kind: KindMonteCarlo, Configs: []string{"Hera/XScale"}, Rhos: []float64{3, 4}, N: 200_000, Seed: 7}
	straight := runToCompletion(t, t.TempDir(), camp)
	resumed, doneAtKill := interruptAndResume(t, camp)
	t.Logf("interrupted after %d/%d shards", doneAtKill, len(resumed.Campaign.planShards()))
	if resumed.Hash != straight.Hash {
		t.Fatalf("resume changed result hash: %s != %s", resumed.Hash, straight.Hash)
	}
	if got, want := cellsJSON(t, resumed), cellsJSON(t, straight); got != want {
		t.Fatalf("resume changed result cells:\ngot  %s\nwant %s", got, want)
	}
}

// TestResumeDeterminismGrid is the same property for grid solves.
func TestResumeDeterminismGrid(t *testing.T) {
	camp := Campaign{Kind: KindGrid, Rhos: []float64{2, 3, 4, 5}} // all 8 catalog configs × 4 ρ = 32 shards
	straight := runToCompletion(t, t.TempDir(), camp)
	resumed, doneAtKill := interruptAndResume(t, camp)
	t.Logf("interrupted after %d/32 shards", doneAtKill)
	if resumed.Hash != straight.Hash {
		t.Fatalf("resume changed result hash: %s != %s", resumed.Hash, straight.Hash)
	}
	if got, want := cellsJSON(t, resumed), cellsJSON(t, straight); got != want {
		t.Fatalf("resume changed result cells:\ngot  %s\nwant %s", got, want)
	}
}

func TestCancelIsJournaledAndSticky(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Options{Dir: dir, Workers: 1})
	m.testShardDelay = func() { time.Sleep(5 * time.Millisecond) }
	st, err := m.Submit(Campaign{Kind: KindMonteCarlo, Configs: []string{"Hera/XScale"}, Rhos: []float64{3}, N: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	fin := waitDone(t, m, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("state %s after cancel", fin.State)
	}
	if _, err := m.Result(st.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("result of cancelled job: %v", err)
	}
	// Idempotent.
	if st2, err := m.Cancel(st.ID); err != nil || st2.State != StateCancelled {
		t.Fatalf("re-cancel: %v %+v", err, st2)
	}
	m.Close()

	// A restart must not resurrect the cancelled job.
	m2 := mustOpen(t, Options{Dir: dir})
	defer m2.Close()
	st3, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != StateCancelled {
		t.Fatalf("cancelled job resurrected as %s", st3.State)
	}
}

func TestShardRetrySucceedsAfterTransientFailures(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir(), ShardRetries: 3, RetryBackoff: time.Millisecond})
	defer m.Close()
	var failures atomic.Int64
	m.opts.BeforeShard = func(jobID string, shard, attempt int) error {
		if shard == 0 && attempt < 3 {
			failures.Add(1)
			return fmt.Errorf("injected transient failure (attempt %d)", attempt)
		}
		return nil
	}
	st, err := m.Submit(Campaign{Kind: KindSweep, Configs: []string{"Hera/XScale"}, Rhos: []float64{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if failures.Load() != 2 {
		t.Fatalf("expected 2 injected failures before success, saw %d", failures.Load())
	}
}

func TestShardFailureFailsJobAfterRetries(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir(), ShardRetries: 2, RetryBackoff: time.Millisecond})
	defer m.Close()
	m.opts.BeforeShard = func(jobID string, shard, attempt int) error {
		if shard == 1 {
			return errors.New("injected permanent failure")
		}
		return nil
	}
	st, err := m.Submit(Campaign{Kind: KindSweep, Configs: []string{"Hera/XScale"}, Rhos: []float64{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "injected permanent failure") {
		t.Fatalf("error should name the cause, got %q", st.Error)
	}
}

func TestRetentionEvictsOldestFinished(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir(), MaxJobs: 2})
	defer m.Close()
	quick := Campaign{Kind: KindSweep, Configs: []string{"Hera/XScale"}, Rhos: []float64{3}}
	st1, err := m.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st1.ID)
	st2, err := m.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st2.ID)
	st3, err := m.Submit(quick)
	if err != nil {
		t.Fatalf("submit over cap should evict, got %v", err)
	}
	waitDone(t, m, st3.ID)
	if _, err := m.Status(st1.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest finished job should be evicted, got %v", err)
	}
	if len(m.List()) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(m.List()))
	}
}

func TestSubscribeStreamsProgressToTerminal(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir(), Workers: 1})
	defer m.Close()
	st, err := m.Submit(Campaign{Kind: KindGrid, Configs: []string{"Hera/XScale"}, Rhos: []float64{3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var last Event
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				if last.State != StateDone || last.ShardsDone != 3 {
					t.Fatalf("stream ended at %+v", last)
				}
				return
			}
			if ev.JobID != st.ID || ev.ShardsTotal != 3 {
				t.Fatalf("bad event %+v", ev)
			}
			last = ev
		case <-deadline:
			t.Fatalf("stream did not terminate; last %+v", last)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir()})
	defer m.Close()
	for name, c := range map[string]Campaign{
		"unknown kind":   {Kind: "banana", Rhos: []float64{3}},
		"no rhos":        {Kind: KindGrid},
		"bad rho":        {Kind: KindGrid, Rhos: []float64{-1}},
		"unknown config": {Kind: KindGrid, Configs: []string{"Cray/YMP"}, Rhos: []float64{3}},
		"n on grid":      {Kind: KindGrid, Rhos: []float64{3}, N: 100},
		"n too small":    {Kind: KindMonteCarlo, Rhos: []float64{3}, N: 1},
		"n too large":    {Kind: KindMonteCarlo, Rhos: []float64{3}, N: 20_000_000},
	} {
		if _, err := m.Submit(c); err == nil {
			t.Errorf("%s: submit accepted invalid campaign", name)
		}
	}
	if len(m.List()) != 0 {
		t.Fatalf("invalid submissions must not create jobs, have %d", len(m.List()))
	}
}

func TestStatsGauges(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir()})
	defer m.Close()
	st, err := m.Submit(Campaign{Kind: KindSweep, Configs: []string{"Hera/XScale"}, Rhos: []float64{3}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	s := m.Stats()
	if s.Done != 1 || s.ShardsExecuted != 1 {
		t.Fatalf("stats %+v, want 1 done / 1 shard", s)
	}
}
