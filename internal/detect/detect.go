// Package detect implements the verification mechanisms the simulator
// uses to catch silent data corruptions. The paper is agnostic about the
// detector ("this approach is agnostic of the nature of the verification
// mechanism"); what matters is that a verification at the end of a
// pattern reliably flags state corrupted since the last verified
// checkpoint. We provide digest-based detectors (FNV-64a and CRC-32), a
// guaranteed verifier that compares a state with reference bytes or a
// reference digest, and a sampled-window partial verifier, all operating
// on real state bytes.
//
// Against reference bytes, the guaranteed verifier passes a state equal
// to them byte for byte without taking a digest: a detector is a pure
// function of the bytes, so equal bytes always sum equal. Only states
// that differ are digested, both sides, so every detector still makes
// the decision its digests make, including a weak digest's misses.
package detect

import (
	"bytes"
	"hash/crc32"
)

// Digest is a 64-bit state fingerprint.
type Digest uint64

// Detector fingerprints workload state. Two states with equal digests
// are considered identical by verification.
type Detector interface {
	// Name identifies the mechanism.
	Name() string
	// Sum fingerprints the state. It must be a pure function of the
	// bytes: Verifier.Verify passes equal bytes without calling it, and
	// the engine compares every run's live state against a clean
	// reference trajectory stepped once and shared by every run, which
	// is sound only if equal bytes always sum equal.
	Sum(state []byte) Digest
}

// FNV64 is the FNV-1a 64-bit detector: fast, good avalanche, detects any
// single bit flip with certainty and multi-flip corruption with
// probability 1 − 2⁻⁶⁴ per pattern.
type FNV64 struct{}

// Name implements Detector.
func (FNV64) Name() string { return "fnv64a" }

// Sum implements Detector.
func (FNV64) Sum(state []byte) Digest {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range state {
		h ^= uint64(b)
		h *= prime64
	}
	return Digest(h)
}

// OrDefault returns det, or FNV64 when det is nil: the detector every
// verifier falls back to.
func OrDefault(det Detector) Detector {
	if det == nil {
		return FNV64{}
	}
	return det
}

// CRC32C uses the Castagnoli CRC-32: weaker than FNV-64 in digest width
// but guaranteed to catch all burst errors up to 32 bits — a plausible
// memory-scrubbing-style checker.
type CRC32C struct{}

// Name implements Detector.
func (CRC32C) Name() string { return "crc32c" }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum implements Detector.
func (CRC32C) Sum(state []byte) Digest {
	return Digest(crc32.Checksum(state, castagnoli))
}

// Verifier compares live state against a reference (the paper's
// verification step): either the reference bytes themselves (Verify) or
// a digest of them taken ahead of time (VerifyDigest). Both reach the
// decision the detector's digests reach, and count it the same way.
type Verifier struct {
	det Detector
	// Counters.
	checks     int
	detections int
}

// NewVerifier builds a Verifier around a detector; nil defaults to FNV64.
func NewVerifier(det Detector) *Verifier {
	return &Verifier{det: OrDefault(det)}
}

// Reset re-derives the verifier in place as NewVerifier(det) would:
// detector swapped (nil defaulting to FNV64) and counters zeroed.
func (v *Verifier) Reset(det Detector) {
	*v = Verifier{det: OrDefault(det)}
}

// Detector returns the underlying detector.
func (v *Verifier) Detector() Detector { return v.det }

// Verify compares state against reference and reports whether they
// match (true = verification passed). Equal bytes pass without a digest;
// unequal bytes pass only if their digests are equal (a detector miss).
// Counting is deliberate: experiment harnesses assert that the number of
// checks equals the number of pattern attempts.
func (v *Verifier) Verify(state, reference []byte) bool {
	if bytes.Equal(state, reference) {
		v.checks++
		return true
	}
	return v.VerifyDigest(state, v.det.Sum(reference))
}

// VerifyDigest is Verify against a precomputed reference digest: it
// digests only state, and counts the check and any detection exactly as
// Verify does.
func (v *Verifier) VerifyDigest(state []byte, reference Digest) bool {
	v.checks++
	ok := v.det.Sum(state) == reference
	if !ok {
		v.detections++
	}
	return ok
}

// Checks returns how many verifications ran.
func (v *Verifier) Checks() int { return v.checks }

// Detections returns how many verifications failed (errors caught).
func (v *Verifier) Detections() int { return v.detections }

// SampledVerifier implements a *partial* verification: each check
// digests only a contiguous window covering a fraction of the state
// (wrapping around), with the window position drawn fresh per check.
// For a corruption confined to one byte, the detection probability —
// the recall of the partial verification literature — equals the
// coverage fraction exactly. The guaranteed (full) verification remains
// the Verifier type; SampledVerifier models the cheap intermediate
// checks of the partial-verification extension.
type SampledVerifier struct {
	det      Detector
	rng      interface{ Intn(int) int }
	coverage float64

	checks     int
	detections int
}

// NewSampledVerifier builds a partial verifier with the given coverage
// fraction in (0, 1]; rng supplies the per-check window positions (any
// source with an Intn method, e.g. *rngx.Stream). nil det defaults to
// FNV64.
func NewSampledVerifier(det Detector, rng interface{ Intn(int) int }, coverage float64) *SampledVerifier {
	if coverage <= 0 || coverage > 1 {
		panic("detect: coverage must be in (0, 1]")
	}
	if rng == nil {
		panic("detect: nil rng")
	}
	return &SampledVerifier{det: OrDefault(det), rng: rng, coverage: coverage}
}

// Reset re-derives the partial verifier in place as NewSampledVerifier
// would, with the same validation panics.
func (v *SampledVerifier) Reset(det Detector, rng interface{ Intn(int) int }, coverage float64) {
	if coverage <= 0 || coverage > 1 {
		panic("detect: coverage must be in (0, 1]")
	}
	if rng == nil {
		panic("detect: nil rng")
	}
	*v = SampledVerifier{det: OrDefault(det), rng: rng, coverage: coverage}
}

// Coverage returns the configured coverage fraction.
func (v *SampledVerifier) Coverage() float64 { return v.coverage }

// Verify compares a freshly positioned window of state against the same
// window of reference. It returns true when the windows match (check
// passed). state and reference must have equal length.
func (v *SampledVerifier) Verify(state, reference []byte) bool {
	if len(state) != len(reference) {
		panic("detect: state/reference length mismatch")
	}
	v.checks++
	n := len(state)
	if n == 0 {
		return true
	}
	k := int(v.coverage * float64(n))
	if k < 1 {
		k = 1
	}
	start := v.rng.Intn(n)
	ok := v.windowSum(state, start, k) == v.windowSum(reference, start, k)
	if !ok {
		v.detections++
	}
	return ok
}

// windowSum digests k bytes starting at start, wrapping around.
func (v *SampledVerifier) windowSum(state []byte, start, k int) Digest {
	n := len(state)
	if start+k <= n {
		return v.det.Sum(state[start : start+k])
	}
	// Wrap: digest the two pieces with a separator fold so (a,b) and
	// (b,a) differ.
	h := uint64(v.det.Sum(state[start:]))
	h = h*1099511628211 ^ uint64(v.det.Sum(state[:start+k-n]))
	return Digest(h)
}

// Checks and Detections report activity, as on Verifier.
func (v *SampledVerifier) Checks() int     { return v.checks }
func (v *SampledVerifier) Detections() int { return v.detections }
