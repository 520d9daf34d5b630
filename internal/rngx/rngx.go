// Package rngx provides the deterministic pseudo-random substrate for the
// respeed simulator and experiments.
//
// Design goals:
//
//   - Bit-for-bit reproducibility: every experiment names its streams, and
//     a (seed, stream-name) pair always yields the same variate sequence
//     regardless of goroutine scheduling.
//   - Independent substreams: parallel sweep workers each derive their own
//     stream from a master seed via SplitMix64 mixing of the stream name,
//     so concurrent execution cannot perturb the sampled values.
//   - Quality: the core generator is xoshiro256**, which passes BigCrush
//     and is the generator family adopted by modern language runtimes.
//
// Nothing in this package is safe for concurrent use of a single Stream;
// derive one Stream per goroutine instead (that is the point).
package rngx

import (
	"math"
	"math/bits"
	"strconv"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding only, per Blackman & Vigna's recommendation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashName folds a stream name into a 64-bit value with FNV-1a, then
// hardens it through one SplitMix64 round so that similar names yield
// decorrelated seeds.
func hashName(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return splitMix64(&h)
}

// hashNameIndexed is hashName(prefix + strconv.Itoa(index)) computed
// without materializing the concatenated string. FNV-1a is
// byte-sequential, so hashing the prefix bytes followed by the decimal
// digits of index is exactly the hash of the concatenation — this is
// what lets the replication hot path derive per-chunk streams with zero
// allocations.
func hashNameIndexed(prefix string, index int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(prefix); i++ {
		h ^= uint64(prefix[i])
		h *= prime64
	}
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(index), 10)
	for _, c := range digits {
		h ^= uint64(c)
		h *= prime64
	}
	return splitMix64(&h)
}

// hashNameIndexedSuffix is hashName(prefix + strconv.Itoa(index) + suffix)
// computed without materializing the concatenated string, by the same
// byte-sequential FNV-1a argument as hashNameIndexed. It covers the
// scenario hot path's naming convention, where a per-replication prefix
// ("scenario/<i>") carries a fixed role suffix ("/exec").
func hashNameIndexedSuffix(prefix string, index int, suffix string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(prefix); i++ {
		h ^= uint64(prefix[i])
		h *= prime64
	}
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(index), 10)
	for _, c := range digits {
		h ^= uint64(c)
		h *= prime64
	}
	for i := 0; i < len(suffix); i++ {
		h ^= uint64(suffix[i])
		h *= prime64
	}
	return splitMix64(&h)
}

// Source is a xoshiro256** generator. The zero value is invalid; use
// NewSource or Stream.
type Source struct {
	s [4]uint64
}

// NewSource returns a generator seeded from seed via SplitMix64 expansion.
// Any seed, including zero, produces a valid non-degenerate state.
func NewSource(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed (re)initializes the generator state in place from seed — the
// allocation-free equivalent of NewSource.
func (s *Source) Seed(seed uint64) {
	sm := seed
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start at the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls
// to Uint64. It can be used to carve non-overlapping sequences out of a
// single seed, although named streams are the preferred mechanism.
func (s *Source) Jump() {
	jump := [4]uint64{
		0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
		0xa9582618e03fc9aa, 0x39abdc4529b1661c,
	}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= s.s[0]
				s1 ^= s.s[1]
				s2 ^= s.s[2]
				s3 ^= s.s[3]
			}
			s.Uint64()
		}
	}
	s.s = [4]uint64{s0, s1, s2, s3}
}

// Stream is a named, seeded random variate generator. It wraps a Source
// with the distribution samplers the simulator needs. The Source is
// embedded by value so a Stream is a single allocation, and Reseed /
// ReseedIndexed re-derive it in place with none.
type Stream struct {
	src  Source
	name string
	seed uint64

	// idx/indexed carry the numeric suffix of a stream derived by
	// ReseedIndexed; Name() re-materializes the full name only when
	// asked (cold path), keeping the hot path free of string building.
	// suffix is the trailing fixed part set by ReseedIndexedSuffix
	// (empty for plain indexed streams).
	idx     int
	indexed bool
	suffix  string

	// Cached second normal variate from the last Box-Muller pair.
	haveGauss bool
	gauss     float64
}

// NewStream derives an independent stream from (seed, name). Identical
// pairs always yield identical sequences.
func NewStream(seed uint64, name string) *Stream {
	st := &Stream{}
	st.Reseed(seed, name)
	return st
}

// Reseed re-derives the stream in place as NewStream(seed, name) would,
// without allocating. All sampler state (including the cached Box-Muller
// variate) is reset, so the subsequent variate sequence is identical to
// a freshly created stream's.
func (st *Stream) Reseed(seed uint64, name string) {
	st.reseedHashed(seed, hashName(name))
	st.name = name
	st.indexed = false
	st.suffix = ""
}

// ReseedIndexed re-derives the stream in place as
// NewStream(seed, prefix+decimal(index)) would, without allocating: the
// concatenated name is never materialized (its hash is computed from the
// parts), which is what makes per-chunk stream derivation in the
// replication hot path allocation-free.
func (st *Stream) ReseedIndexed(seed uint64, prefix string, index int) {
	st.reseedHashed(seed, hashNameIndexed(prefix, index))
	st.name = prefix
	st.idx = index
	st.indexed = true
	st.suffix = ""
}

// ReseedIndexedSuffix re-derives the stream in place as
// NewStream(seed, prefix+decimal(index)+suffix) would, without
// allocating. This is the naming shape of per-replication scenario
// substreams ("scenario/<i>/exec"): a numbered prefix with a fixed role
// suffix, derivable per run with no string building.
func (st *Stream) ReseedIndexedSuffix(seed uint64, prefix string, index int, suffix string) {
	st.reseedHashed(seed, hashNameIndexedSuffix(prefix, index, suffix))
	st.name = prefix
	st.idx = index
	st.indexed = true
	st.suffix = suffix
}

// reseedHashed resets the generator and sampler state from the master
// seed and a pre-hashed name.
func (st *Stream) reseedHashed(seed, nameHash uint64) {
	mixed := seed ^ nameHash
	// One extra SplitMix64 round decorrelates seed and name contributions.
	mixed2 := mixed
	_ = splitMix64(&mixed2)
	st.src.Seed(mixed2)
	st.seed = seed
	st.haveGauss = false
	st.gauss = 0
}

// Name returns the stream's name.
func (st *Stream) Name() string {
	if st.indexed {
		return st.name + strconv.Itoa(st.idx) + st.suffix
	}
	return st.name
}

// Seed returns the master seed the stream was derived from.
func (st *Stream) Seed() uint64 { return st.seed }

// Child derives a sub-stream; Child("a") of stream "x" equals
// NewStream(seed, "x/a"). Use it to give each pattern, worker, or
// replication its own reproducible randomness.
func (st *Stream) Child(name string) *Stream {
	return NewStream(st.seed, st.Name()+"/"+name)
}

// Uint64 returns the next 64 random bits.
func (st *Stream) Uint64() uint64 { return st.src.Uint64() }

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (st *Stream) Float64() float64 {
	return float64(st.src.Uint64()>>11) * 0x1p-53
}

// Uniform returns a uniform variate in [lo, hi).
func (st *Stream) Uniform(lo, hi float64) float64 {
	// The conversion rounds the product, so no GOARCH fuses the sum.
	return lo + float64((hi-lo)*st.Float64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method gives an unbiased result.
func (st *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rngx: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(st.src.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(st.src.Uint64(), un)
		}
	}
	return int(hi)
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0. The inversion uses log1p on a [0,1) uniform so
// the result is never +Inf and retains precision in the tail.
func (st *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rngx: Exp with non-positive rate")
	}
	u := st.Float64() // in [0, 1)
	return -math.Log1p(-u) / rate
}

// FillFloat64 fills dst with uniform variates in [0, 1). The sequence is
// exactly the one len(dst) scalar Float64 calls would produce on the same
// stream — the batch form only removes per-call overhead, never changes
// the draw.
func (st *Stream) FillFloat64(dst []float64) {
	for i := range dst {
		dst[i] = float64(st.src.Uint64()>>11) * 0x1p-53
	}
}

// FillExp fills dst with exponential variates of the given rate. The
// sequence is exactly the one len(dst) scalar Exp calls would produce on
// the same stream. It panics if rate <= 0 (even for an empty dst, like
// the scalar call would on its first draw).
func (st *Stream) FillExp(dst []float64, rate float64) {
	if rate <= 0 {
		panic("rngx: FillExp with non-positive rate")
	}
	for i := range dst {
		u := float64(st.src.Uint64()>>11) * 0x1p-53
		dst[i] = -math.Log1p(-u) / rate
	}
}

// ExpCutoff classifies exponential-variate threshold tests by comparing
// the generating uniform directly, without taking a logarithm per draw.
// It answers the Poisson-thinning question "would Exp(rate) < dur?" for
// a uniform u exactly as the scalar pipeline
//
//	-math.Log1p(-u)/rate < dur
//
// would, which is what lets batch-filled uniforms replace scalar Exp
// draws in the replication lane kernel without changing a single
// decision. Construct with ExpHitCutoff; the zero value classifies
// nothing as a hit.
type ExpCutoff struct {
	rate, dur float64
	// Uniforms below lo are certain hits and uniforms at or above hi are
	// certain misses; the narrow band between them (a few thousand ulps
	// around the threshold, hit with probability ~5e-13 per draw) falls
	// back to the exact scalar expression. The guard band is what keeps
	// the classification exact without assuming bit-level monotonicity
	// of the platform's Log1p.
	lo, hi float64
}

// ExpHitCutoff precomputes the classifier for "Exp(rate) < dur". It
// panics if rate <= 0, mirroring Exp — callers guard rate == 0 the same
// way the scalar fault samplers do. A non-positive dur yields a cutoff
// that never hits, matching the scalar comparison (the variate is >= 0).
func ExpHitCutoff(rate, dur float64) ExpCutoff {
	if rate <= 0 {
		panic("rngx: ExpHitCutoff with non-positive rate")
	}
	c := ExpCutoff{rate: rate, dur: dur}
	if dur <= 0 {
		return c
	}
	// Float64 uniforms live on the grid k·2⁻⁵³, k ∈ [0, 2⁵³). Bisect for
	// the smallest grid point whose variate reaches dur. The predicate
	// is false at k=0 (variate 0) and true at the k=2⁵³ sentinel (u=1
	// maps to +Inf), so the invariant holds without special cases.
	lo, hi := uint64(0), uint64(1)<<53
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		u := float64(mid) * 0x1p-53
		if -math.Log1p(-u)/rate >= dur {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Widen by 2¹² grid steps on each side: any non-monotonicity in
	// Log1p is confined to ~1 ulp of its result, orders of magnitude
	// inside the band, so outside it the bisected boundary is exact.
	const guard = 1 << 12
	bandLo := int64(hi) - guard
	if bandLo < 0 {
		bandLo = 0
	}
	bandHi := hi + guard
	if bandHi > 1<<53 {
		bandHi = 1 << 53
	}
	c.lo = float64(bandLo) * 0x1p-53
	c.hi = float64(bandHi) * 0x1p-53
	return c
}

// Hit reports whether the uniform u generates an exponential variate
// below the cutoff's duration — bit-exactly the scalar decision
// -Log1p(-u)/rate < dur, at the cost of one or two compares for all but
// a ~5e-13 sliver of the uniform range.
func (c ExpCutoff) Hit(u float64) bool {
	if u < c.lo {
		return true
	}
	if u >= c.hi {
		return false
	}
	return c.hitExact(u)
}

// hitExact evaluates the scalar expression for in-band uniforms. Kept
// out of Hit so the two-compare fast path stays inlinable.
func (c ExpCutoff) hitExact(u float64) bool {
	return -math.Log1p(-u)/c.rate < c.dur
}

// Normal returns a normal variate with the given mean and standard
// deviation using the Box-Muller transform (pairs cached). Every product
// that feeds a sum, Float64's own scaling included, is rounded by an
// explicit conversion, so no target fuses them (see Uniform).
func (st *Stream) Normal(mean, stddev float64) float64 {
	if st.haveGauss {
		st.haveGauss = false
		return mean + float64(stddev*st.gauss)
	}
	var u, v, s float64
	for {
		u = 2*float64(st.Float64()) - 1
		v = 2*float64(st.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	st.gauss = v * f
	st.haveGauss = true
	return mean + float64(stddev*u*f)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (st *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return st.Float64() < p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (st *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := st.Intn(i + 1)
		swap(i, j)
	}
}

// PCG64 is a PCG-XSL-RR 128/64 generator — an independent second source
// used to cross-check xoshiro256** results (two generator families
// agreeing rules out generator artifacts in Monte-Carlo findings).
type PCG64 struct {
	hi, lo uint64
}

// NewPCG64 seeds a PCG64 from one 64-bit seed via SplitMix64 expansion.
func NewPCG64(seed uint64) *PCG64 {
	sm := seed
	p := &PCG64{}
	p.hi = splitMix64(&sm)
	p.lo = splitMix64(&sm) | 1 // increment-style low word must be odd
	return p
}

// Uint64 returns the next 64 random bits.
func (p *PCG64) Uint64() uint64 {
	// 128-bit LCG step: state = state*mul + inc (mul from PCG reference).
	const mulHi, mulLo = 2549297995355413924, 4865540595714422341
	const incHi, incLo = 6364136223846793005, 1442695040888963407
	// 128-bit multiply of (hi,lo) by (mulHi,mulLo).
	h, l := mul128(p.hi, p.lo, mulHi, mulLo)
	// Add increment.
	l += incLo
	if l < incLo {
		h++
	}
	h += incHi
	p.hi, p.lo = h, l
	// XSL-RR output: xor-fold then random rotation.
	x := p.hi ^ p.lo
	rot := uint(p.hi >> 58)
	return x>>rot | x<<((64-rot)&63)
}

// Float64 returns a uniform variate in [0, 1).
func (p *PCG64) Float64() float64 {
	return float64(p.Uint64()>>11) * 0x1p-53
}

// mul128 computes the low 128 bits of (aHi,aLo) × (bHi,bLo).
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(aLo, bLo)
	hi += aHi*bLo + aLo*bHi
	return hi, lo
}
