package engine

import (
	"context"
	"math"
	"sync"

	"respeed/internal/energy"
	"respeed/internal/rngx"
)

// This file is the batched form of the abstract-pattern replication hot
// path: a struct-of-arrays lane kernel that runs a whole chunk of
// replicas off pre-filled uniform batches instead of driving the
// PatternEngine event loop per replication. It is bit-exact with the
// scalar path by construction:
//
//   - Draw identity. AggregateFaults' fail-stop and silent samplers each
//     consume exactly one Float64 per draw and compare the resulting
//     exponential variate against the window. The kernel consumes the
//     same uniforms in the same order from FillFloat64 batches (batch
//     fills are defined to reproduce scalar draws) and classifies them
//     through rngx.ExpCutoff, whose decisions equal the scalar
//     -Log1p(-u)/rate < dur comparison for every uniform.
//   - Accumulation identity. Time and energy are differences of running
//     sums, so the kernel replays the exact per-segment += sequence the
//     SumRecorder performs — one addition per Advance, with energies
//     precomputed from the same dur×power products the model evaluates.
//
// The fan-out path always qualifies for the kernel: its chunks run with
// an aggregate fault process, a SumRecorder, separate verify billing and
// no trace hooks (see the former patternScratch). The scalar loop
// remains as PatternEngine.RunPattern for single-run, traced and
// full-stack executions, and as the reference in the equivalence tests.

// laneScratch is the pooled per-chunk working set: the chunk stream and
// the uniform/classification lanes.
type laneScratch struct {
	rng  rngx.Stream
	u    []float64
	hit1 []bool
	hit2 []bool
}

var laneScratchPool = sync.Pool{New: func() any { return new(laneScratch) }}

// grow sizes the lanes to n without shrinking capacity.
func (s *laneScratch) grow(n int) {
	if cap(s.u) < n {
		s.u = make([]float64, n)
		s.hit1 = make([]bool, n)
		s.hit2 = make([]bool, n)
	}
	s.u = s.u[:n]
	s.hit1 = s.hit1[:n]
	s.hit2 = s.hit2[:n]
}

// patternKernel precomputes everything about a (plan, costs, model)
// triple that the per-replica walk needs: segment durations, their
// energies, and the uniform-space cutoffs of both fault channels at
// both speeds. Building one costs four cutoff bisections (~µs), so the
// parallel path builds it once per call, not per chunk.
type patternKernel struct {
	lamS, lamF float64

	cd1, vd1, cd2, vd2 float64 // compute/verify durations at σ1/σ2
	p1, p2             float64 // compute power at σ1/σ2

	eCd1, eVd1, eCd2, eVd2 float64 // fixed-segment energies
	r, c                   float64 // recovery/checkpoint durations
	eR, eC                 float64 // their energies

	fCut1, fCut2 rngx.ExpCutoff // fail-stop over compute+verify span
	sCut1, sCut2 rngx.ExpCutoff // silent over compute span

	drawsPerAttempt int
	retryEst        float64 // rough per-attempt retry probability at σ2 (lane sizing only)
}

func newPatternKernel(plan Plan, costs Costs, model energy.Model) *patternKernel {
	k := &patternKernel{
		lamS: costs.LambdaS,
		lamF: costs.LambdaF,
		cd1:  plan.W / plan.Sigma1,
		vd1:  costs.V / plan.Sigma1,
		cd2:  plan.W / plan.Sigma2,
		vd2:  costs.V / plan.Sigma2,
		p1:   model.ComputePower(plan.Sigma1),
		p2:   model.ComputePower(plan.Sigma2),
		r:    costs.R,
		c:    costs.C,
	}
	k.eCd1, k.eVd1 = k.cd1*k.p1, k.vd1*k.p1
	k.eCd2, k.eVd2 = k.cd2*k.p2, k.vd2*k.p2
	k.eR, k.eC = model.IOEnergy(costs.R), model.IOEnergy(costs.C)
	if k.lamF > 0 {
		k.fCut1 = rngx.ExpHitCutoff(k.lamF, k.cd1+k.vd1)
		k.fCut2 = rngx.ExpHitCutoff(k.lamF, k.cd2+k.vd2)
		k.retryEst += 1 - math.Exp(-k.lamF*(k.cd2+k.vd2))
		k.drawsPerAttempt++
	}
	if k.lamS > 0 {
		k.sCut1 = rngx.ExpHitCutoff(k.lamS, k.cd1)
		k.sCut2 = rngx.ExpHitCutoff(k.lamS, k.cd2)
		k.retryEst += 1 - math.Exp(-k.lamS*k.cd2)
		k.drawsPerAttempt++
	}
	return k
}

// laneSize estimates the uniform demand of reps replicas so a chunk is
// usually served by a single fill, without overdrawing small chunks into
// oversized batches. Overdraw is harmless for correctness — each chunk
// stream is reseeded per chunk and has no other consumer — but filling
// thousands of unused uniforms would cost real time on small chunks.
func (k *patternKernel) laneSize(reps int) int {
	retry := k.retryEst
	if retry > 0.9 {
		retry = 0.9
	}
	attempts := 1 / (1 - retry)
	n := int(float64(reps)*attempts*float64(k.drawsPerAttempt)*1.25) + 16
	if n < 32 {
		n = 32
	}
	if n > 8192 {
		n = 8192
	}
	return n
}

// runChunk executes replications [lo, hi) of one fixed chunk into acc,
// deriving all randomness from (seed, chunk) — the kernel form of the
// historical per-chunk scalar loop, accumulating bit-identically to it.
func (k *patternKernel) runChunk(ctx context.Context, seed uint64, chunk, lo, hi int, acc *estimator) error {
	s := laneScratchPool.Get().(*laneScratch)
	defer laneScratchPool.Put(s)
	s.rng.ReseedIndexed(seed, "replicate/chunk-", chunk)
	switch {
	case k.lamF > 0:
		return k.runGeneral(ctx, s, lo, hi, acc)
	case k.lamS > 0:
		return k.runSilentLanes(ctx, s, lo, hi, acc)
	default:
		return k.runFaultFree(ctx, lo, hi, acc)
	}
}

// runFaultFree is the no-draw walk: both rates zero, one attempt per
// replica. The running clock/joules sums are still replayed per segment
// so the per-replica differences match the scalar recorder bit for bit.
func (k *patternKernel) runFaultFree(ctx context.Context, lo, hi int, acc *estimator) error {
	var clock, joules float64
	for r := lo; r < hi; r++ {
		startClock, startJoules := clock, joules
		clock += k.cd1
		joules += k.eCd1
		clock += k.vd1
		joules += k.eVd1
		clock += k.c
		joules += k.eC
		acc.add(PatternResult{Time: clock - startClock, Energy: joules - startJoules, Attempts: 1})
		if (r-lo)&ctxPollMask == ctxPollMask {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSilentLanes is the struct-of-arrays fast path for silent-only fault
// processes (the paper's base configuration): exactly one uniform per
// attempt, so a whole batch is classified against both speeds' cutoffs
// up front — two branch-free lanes — and the per-replica walk just
// consumes booleans.
func (k *patternKernel) runSilentLanes(ctx context.Context, s *laneScratch, lo, hi int, acc *estimator) error {
	s.grow(k.laneSize(hi - lo))
	u, h1, h2 := s.u, s.hit1, s.hit2
	pos := len(u) // first use fills
	var clock, joules float64
	for r := lo; r < hi; r++ {
		startClock, startJoules := clock, joules
		attempts := 1
		if pos == len(u) {
			s.rng.FillFloat64(u)
			for i, ui := range u {
				h1[i] = k.sCut1.Hit(ui)
				h2[i] = k.sCut2.Hit(ui)
			}
			pos = 0
		}
		hit := h1[pos]
		pos++
		clock += k.cd1
		joules += k.eCd1
		clock += k.vd1
		joules += k.eVd1
		for hit {
			clock += k.r
			joules += k.eR
			attempts++
			if pos == len(u) {
				s.rng.FillFloat64(u)
				for i, ui := range u {
					h1[i] = k.sCut1.Hit(ui)
					h2[i] = k.sCut2.Hit(ui)
				}
				pos = 0
			}
			hit = h2[pos]
			pos++
			clock += k.cd2
			joules += k.eCd2
			clock += k.vd2
			joules += k.eVd2
		}
		clock += k.c
		joules += k.eC
		acc.add(PatternResult{
			Time:         clock - startClock,
			Energy:       joules - startJoules,
			Attempts:     attempts,
			SilentErrors: attempts - 1,
		})
		if (r-lo)&ctxPollMask == ctxPollMask {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// runGeneral handles fail-stop (with or without silent) processes. Draw
// counts are data-dependent — the silent uniform exists only when the
// fail-stop missed — so uniforms are consumed sequentially from the
// batch, preserving the scalar draw order exactly; the logarithm is
// taken only for the rare fail-stop hits that need an arrival offset.
func (k *patternKernel) runGeneral(ctx context.Context, s *laneScratch, lo, hi int, acc *estimator) error {
	s.grow(k.laneSize(hi - lo))
	u := s.u
	pos := len(u) // first use fills
	var clock, joules float64
	for r := lo; r < hi; r++ {
		startClock, startJoules := clock, joules
		attempts, silents, failStops := 0, 0, 0
		cd, vd, eCd, eVd, p := k.cd1, k.vd1, k.eCd1, k.eVd1, k.p1
		fCut, sCut := k.fCut1, k.sCut1
		first := true
		for {
			attempts++
			if pos == len(u) {
				s.rng.FillFloat64(u)
				pos = 0
			}
			uf := u[pos]
			pos++
			if fCut.Hit(uf) {
				at := -math.Log1p(-uf) / k.lamF
				clock += at
				joules += float64(at * p)
				failStops++
				clock += k.r
				joules += k.eR
				if first {
					cd, vd, eCd, eVd, p = k.cd2, k.vd2, k.eCd2, k.eVd2, k.p2
					fCut, sCut = k.fCut2, k.sCut2
					first = false
				}
				continue
			}
			silent := false
			if k.lamS > 0 {
				if pos == len(u) {
					s.rng.FillFloat64(u)
					pos = 0
				}
				us := u[pos]
				pos++
				silent = sCut.Hit(us)
			}
			clock += cd
			joules += eCd
			clock += vd
			joules += eVd
			if silent {
				silents++
				clock += k.r
				joules += k.eR
				if first {
					cd, vd, eCd, eVd, p = k.cd2, k.vd2, k.eCd2, k.eVd2, k.p2
					fCut, sCut = k.fCut2, k.sCut2
					first = false
				}
				continue
			}
			clock += k.c
			joules += k.eC
			break
		}
		acc.add(PatternResult{
			Time:           clock - startClock,
			Energy:         joules - startJoules,
			Attempts:       attempts,
			SilentErrors:   silents,
			FailStopErrors: failStops,
		})
		if (r-lo)&ctxPollMask == ctxPollMask {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPatternChunk executes replications [lo, hi) of one fixed chunk into
// acc, deriving all randomness from (seed, chunk). It is the shared body
// of ReplicatePatternParallelCtx and the exported chunk API, so a chunk
// executed in isolation (e.g. as one shard of a batch job) accumulates
// bit-identically to the same chunk inside the in-process fan-out.
// plan and costs must already be validated by the caller.
func runPatternChunk(ctx context.Context, plan Plan, costs Costs, model energy.Model, seed uint64, chunk, lo, hi int, acc *estimator) error {
	return newPatternKernel(plan, costs, model).runChunk(ctx, seed, chunk, lo, hi, acc)
}
