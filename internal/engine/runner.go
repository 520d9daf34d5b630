package engine

import (
	"bytes"

	"respeed/internal/workload"
)

// Runner adapts any workload-like value for the full-stack executor.
// In practice callers pass package workload kernels through
// FromWorkload; the functional form also lets tests inject minimal
// fakes.
type Runner struct {
	name      string
	advanceFn func(float64)
	progress  func() float64
	stateFn   func() []byte
	restoreFn func([]byte) error
	clone     func() *Runner

	// snap caches the serialized state until the next advance or
	// restore, so the workload is serialized at most once per mutation:
	// the digest a verification takes, the checkpoint the tier commits
	// and the final report digest share one serialization.
	snap    []byte
	snapped bool

	// fp identifies the wrapped kernel's constructor parameters when the
	// kernel exposes a Fingerprint method (hasFP); it is part of the
	// runner's witness (workloadID).
	fp    uint64
	hasFP bool
}

// NewRunner wraps explicit functions.
func NewRunner(name string, advance func(float64), progress func() float64,
	state func() []byte, restore func([]byte) error, clone func() *Runner) *Runner {
	return &Runner{name: name, advanceFn: advance, progress: progress,
		stateFn: state, restoreFn: restore, clone: clone}
}

// FromWorkload adapts a package workload kernel to a Runner.
func FromWorkload(w workload.Workload) *Runner {
	r := &Runner{
		name:      w.Name(),
		advanceFn: w.Advance,
		progress:  w.Progress,
		stateFn:   w.State,
		restoreFn: w.Restore,
		clone:     func() *Runner { return FromWorkload(w.Clone()) },
	}
	if f, ok := w.(interface{ Fingerprint() uint64 }); ok {
		r.fp = f.Fingerprint()
		r.hasFP = true
	}
	return r
}

// Name returns the wrapped workload's name.
func (r *Runner) Name() string { return r.name }

// Clone returns an independent copy of the runner's workload.
func (r *Runner) Clone() *Runner { return r.clone() }

// advance performs units of work.
func (r *Runner) advance(units float64) {
	r.snapped = false
	r.advanceFn(units)
}

// restore replaces the workload state with a snapshot.
func (r *Runner) restore(state []byte) error {
	r.snapped = false
	return r.restoreFn(state)
}

// state returns the serialized workload state. Like Workload.State, the
// slice aliases the workload's storage and is valid until the next
// advance or restore.
func (r *Runner) state() []byte {
	if !r.snapped {
		r.snap = r.stateFn()
		r.snapped = true
	}
	return r.snap
}

// workloadID witnesses which workload a never-advanced runner is: its
// name, its constructor fingerprint and its serialized initial state.
// Two runners with the same witness step identically, so a workload
// cached for one, or a clean trajectory stepped from one, serves the
// other. Only kernels that expose a fingerprint have a witness (ok): a
// name and a state alone cannot prove two kernels interchangeable
// (Heat's diffusion coefficient appears in neither).
type workloadID struct {
	name  string
	fp    uint64
	state []byte
	ok    bool
}

// identity returns the witness of the never-advanced runner r, with its
// own copy of the state.
func (r *Runner) identity() workloadID {
	return workloadID{name: r.name, fp: r.fp, state: append([]byte(nil), r.state()...), ok: r.hasFP}
}

// same reports whether id and o witness one interchangeable workload.
func (id *workloadID) same(o *workloadID) bool {
	return id.ok && o.ok && id.fp == o.fp && id.name == o.name && bytes.Equal(id.state, o.state)
}
