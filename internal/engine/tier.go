package engine

import (
	"errors"
	"fmt"

	"respeed/internal/energy"
	"respeed/internal/trace"
)

// Tier is the checkpoint/rollback policy of a full-stack execution. It
// owns the checkpoint slots, bills checkpoint and recovery time on the
// app's recorder, and decides which pattern execution resumes after an
// error.
type Tier interface {
	// Init commits the initial state as checkpoint zero (pattern −1).
	Init(x *App)
	// Commit persists the verified state after pattern committed, and
	// bills the checkpoint cost(s).
	Commit(x *App, pattern, attempt int)
	// OnVerifyFail rolls back after a detected silent error and
	// returns the pattern index to resume from.
	OnVerifyFail(x *App, pattern int) (resume int, err error)
	// OnFailStop rolls back after a fail-stop error and returns the
	// pattern index to resume from.
	OnFailStop(x *App, pattern int) (resume int, err error)
	// Redo reports whether pattern is a re-execution of previously
	// committed work (run at σ2 even on its first attempt since the
	// rollback).
	Redo(pattern int) bool
	// Stats aggregates checkpoint activity across the tier's levels.
	Stats() CkptStats
}

// CkptStats summarizes checkpoint activity.
type CkptStats struct {
	Commits      int
	Recoveries   int
	BytesWritten int64
	BytesRead    int64
}

// String renders the stats compactly.
func (st CkptStats) String() string {
	return fmt.Sprintf("commits=%d recoveries=%d written=%dB read=%dB",
		st.Commits, st.Recoveries, st.BytesWritten, st.BytesRead)
}

// slot is one checkpoint level. The paper verifies before every
// checkpoint, so a rollback only ever needs the latest verified state:
// a level keeps exactly that state (its own copy), the pattern whose end
// it marks, and the level's activity counters. Every commit is preceded
// by a passed verification, or by none under SkipVerification; App.run
// enforces that order, not the slot.
type slot struct {
	state   []byte
	pattern int
	stats   CkptStats
}

// commit copies state into the slot's buffer as the checkpoint after
// pattern, so later workload mutation cannot leak into it.
func (s *slot) commit(state []byte, pattern int) {
	s.state = append(s.state[:0], state...)
	s.pattern = pattern
	s.stats.Commits++
	s.stats.BytesWritten += int64(len(state))
}

// recoverView returns the checkpointed bytes and their pattern, and
// counts the read. The bytes alias the slot: they are read-only and
// valid until the next commit or reset (the workload's restore copies
// them out at once).
func (s *slot) recoverView() ([]byte, int, error) {
	if s.stats.Commits == 0 {
		return nil, 0, errors.New("engine: no checkpoint committed")
	}
	s.stats.Recoveries++
	s.stats.BytesRead += int64(len(s.state))
	return s.state, s.pattern, nil
}

// reset empties the slot and zeroes its counters, keeping the buffer so
// a pooled run commits without allocating.
func (s *slot) reset() { *s = slot{state: s.state[:0]} }

// restoreFrom rolls the workload back to level's checkpoint and returns
// the pattern index the checkpoint follows.
func restoreFrom(x *App, level *slot) (int, error) {
	state, pattern, err := level.recoverView()
	if err != nil {
		return 0, err
	}
	return pattern, x.restore(state)
}

// SingleLevel is the paper's base protocol: one verified checkpoint,
// checkpoint cost C, recovery cost R, retry the same pattern.
type SingleLevel struct {
	c, r float64
	ckpt slot
}

// NewSingleLevel builds the tier: one checkpoint slot, overwritten by
// every commit.
func NewSingleLevel(c, r float64) *SingleLevel {
	return &SingleLevel{c: c, r: r}
}

// reset re-derives the tier in place as NewSingleLevel(c, r) would,
// keeping the slot's buffer.
func (t *SingleLevel) reset(c, r float64) {
	t.c, t.r = c, r
	t.ckpt.reset()
}

// Init implements Tier.
func (t *SingleLevel) Init(x *App) { t.ckpt.commit(x.main.state(), -1) }

// Commit implements Tier: store first, then bill C.
func (t *SingleLevel) Commit(x *App, pattern, attempt int) {
	t.ckpt.commit(x.main.state(), pattern)
	x.rec.Advance(t.c, energy.Checkpoint, 0)
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Checkpoint, Pattern: pattern, Attempt: attempt})
}

// OnVerifyFail implements Tier: restore the checkpoint, then bill R —
// the historical full-stack simulator's order — and retry the same
// pattern.
func (t *SingleLevel) OnVerifyFail(x *App, pattern int) (int, error) {
	if _, err := restoreFrom(x, &t.ckpt); err != nil {
		return 0, fmt.Errorf("engine: recover: %w", err)
	}
	x.rec.Advance(t.r, energy.Recovery, 0)
	return pattern, nil
}

// OnFailStop implements Tier: identical to a silent rollback.
func (t *SingleLevel) OnFailStop(x *App, pattern int) (int, error) { return t.OnVerifyFail(x, pattern) }

// Redo implements Tier: single-level never re-runs committed patterns.
func (t *SingleLevel) Redo(int) bool { return false }

// Stats implements Tier.
func (t *SingleLevel) Stats() CkptStats { return t.ckpt.stats }

// TwoLevelSpec parameterizes the two-level tier.
type TwoLevelSpec struct {
	// MemC is the in-memory checkpoint cost (seconds); DiskC the disk
	// checkpoint cost; DiskR the disk recovery cost.
	MemC, DiskC, DiskR float64
	// Every is k ≥ 1: a disk checkpoint follows every k-th pattern.
	Every int
}

// Validate checks the spec.
func (sp TwoLevelSpec) Validate() error {
	if sp.MemC < 0 || sp.DiskC < 0 || sp.DiskR < 0 {
		return fmt.Errorf("engine: negative two-level costs (MemC=%g DiskC=%g DiskR=%g)", sp.MemC, sp.DiskC, sp.DiskR)
	}
	if sp.Every < 1 {
		return fmt.Errorf("engine: disk interval must be ≥ 1 (got %d)", sp.Every)
	}
	return nil
}

// TwoLevel is the memory+disk tier [Benoit, Cavelan, Robert, Sun,
// IPDPS 2016]: cheap in-memory checkpoints after every pattern absorb
// silent errors; expensive disk checkpoints every k patterns survive
// fail-stop crashes, which wipe the memory level and roll the execution
// back up to k−1 committed patterns.
type TwoLevel struct {
	spec  TwoLevelSpec
	r     float64 // memory-level recovery cost (the platform R)
	total int     // application pattern count (the final pattern always hits disk)
	mem   slot
	disk  slot
	// frontier is the highest pattern index ever committed to memory;
	// patterns at or below it that run again after a disk rollback are
	// catch-up re-executions.
	frontier int
}

// NewTwoLevel builds the tier for an application of total patterns.
func NewTwoLevel(spec TwoLevelSpec, memRecovery float64, total int) *TwoLevel {
	return &TwoLevel{spec: spec, r: memRecovery, total: total, frontier: -1}
}

// reset re-derives the tier in place as NewTwoLevel would, keeping both
// slots' buffers.
func (t *TwoLevel) reset(spec TwoLevelSpec, memRecovery float64, total int) {
	t.spec, t.r, t.total = spec, memRecovery, total
	t.mem.reset()
	t.disk.reset()
	t.frontier = -1
}

// Init implements Tier: the initial state is both disk and memory
// checkpoint zero.
func (t *TwoLevel) Init(x *App) {
	t.disk.commit(x.main.state(), -1)
	t.mem.commit(x.main.state(), -1)
}

// Commit implements Tier: a memory checkpoint after every pattern, and
// a disk checkpoint on every k-th pattern (and always for the final
// one, so the result is durable).
func (t *TwoLevel) Commit(x *App, pattern, attempt int) {
	t.mem.commit(x.main.state(), pattern)
	x.rec.Advance(t.spec.MemC, energy.Checkpoint, 0)
	x.rep.MemCommits++
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Checkpoint, Pattern: pattern, Attempt: attempt, Detail: "memory"})
	if (pattern+1)%t.spec.Every == 0 || pattern == t.total-1 {
		t.disk.commit(x.main.state(), pattern)
		x.rec.Advance(t.spec.DiskC, energy.Checkpoint, 0)
		x.rep.DiskCommits++
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Checkpoint, Pattern: pattern, Attempt: attempt, Detail: "disk"})
	}
	if pattern > t.frontier {
		t.frontier = pattern
	}
}

// OnVerifyFail implements Tier: a detected silent error is absorbed by
// the memory level (cost R), retrying the same pattern.
func (t *TwoLevel) OnVerifyFail(x *App, pattern int) (int, error) {
	x.rep.MemRecoveries++
	x.rec.Advance(t.r, energy.Recovery, 0)
	if _, err := restoreFrom(x, &t.mem); err != nil {
		return 0, fmt.Errorf("engine: memory recovery: %w", err)
	}
	return pattern, nil
}

// OnFailStop implements Tier: the crash wipes the memory level; roll
// back to the last disk checkpoint (cost DiskR), reseed memory from it,
// and resume from the first pattern after the disk checkpoint.
func (t *TwoLevel) OnFailStop(x *App, pattern int) (int, error) {
	x.rep.DiskRecoveries++
	x.rec.Advance(t.spec.DiskR, energy.Recovery, 0)
	diskPattern, err := restoreFrom(x, &t.disk)
	if err != nil {
		return 0, fmt.Errorf("engine: disk recovery: %w", err)
	}
	// The reseed commit is bookkeeping, not a billed checkpoint.
	t.mem.commit(x.main.state(), diskPattern)
	x.rep.PatternsLost += pattern - (diskPattern + 1)
	return diskPattern + 1, nil
}

// Redo implements Tier.
func (t *TwoLevel) Redo(pattern int) bool { return pattern <= t.frontier }

// Stats implements Tier: memory and disk activity combined.
func (t *TwoLevel) Stats() CkptStats {
	m, d := t.mem.stats, t.disk.stats
	return CkptStats{Commits: m.Commits + d.Commits, Recoveries: m.Recoveries + d.Recoveries,
		BytesWritten: m.BytesWritten + d.BytesWritten, BytesRead: m.BytesRead + d.BytesRead}
}
