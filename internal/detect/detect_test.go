package detect

import (
	"testing"
	"testing/quick"

	"respeed/internal/rngx"
)

var detectors = []Detector{FNV64{}, CRC32C{}}

func TestSingleBitFlipAlwaysDetected(t *testing.T) {
	// Flip every single bit of a 256-byte state in turn; every detector
	// must change its digest (single-bit detection is the minimum bar for
	// an SDC verifier).
	state := make([]byte, 256)
	rng := rngx.NewStream(1, "detect")
	for i := range state {
		state[i] = byte(rng.Intn(256))
	}
	for _, det := range detectors {
		ref := det.Sum(state)
		for bit := 0; bit < len(state)*8; bit++ {
			state[bit/8] ^= 1 << uint(bit%8)
			if det.Sum(state) == ref {
				t.Errorf("%s: bit flip at %d undetected", det.Name(), bit)
			}
			state[bit/8] ^= 1 << uint(bit%8) // restore
		}
		if det.Sum(state) != ref {
			t.Fatalf("%s: state not restored", det.Name())
		}
	}
}

func TestDigestDeterministic(t *testing.T) {
	f := func(data []byte) bool {
		for _, det := range detectors {
			if det.Sum(data) != det.Sum(data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDigestSensitivity(t *testing.T) {
	// Random multi-bit corruptions must be detected with overwhelming
	// probability.
	rng := rngx.NewStream(2, "detect-multi")
	state := make([]byte, 1024)
	for i := range state {
		state[i] = byte(rng.Intn(256))
	}
	for _, det := range detectors {
		ref := det.Sum(state)
		misses := 0
		const trials = 2000
		for trial := 0; trial < trials; trial++ {
			cp := append([]byte(nil), state...)
			flips := 1 + rng.Intn(8)
			for f := 0; f < flips; f++ {
				bit := rng.Intn(len(cp) * 8)
				cp[bit/8] ^= 1 << uint(bit%8)
			}
			if det.Sum(cp) == ref {
				misses++
			}
		}
		if misses > 0 {
			t.Errorf("%s: %d/%d corruptions undetected", det.Name(), misses, trials)
		}
	}
}

func TestDetectorNames(t *testing.T) {
	if (FNV64{}).Name() != "fnv64a" || (CRC32C{}).Name() != "crc32c" {
		t.Error("detector names changed")
	}
}

func TestVerifierCountsAndDetects(t *testing.T) {
	v := NewVerifier(FNV64{})
	clean := []byte("the quick brown fox")
	dirty := append([]byte(nil), clean...)
	dirty[3] ^= 0x40

	if !v.Verify(clean, clean) {
		t.Error("identical states must verify")
	}
	if v.Verify(dirty, clean) {
		t.Error("corrupted state must fail verification")
	}
	if v.Checks() != 2 {
		t.Errorf("Checks = %d", v.Checks())
	}
	if v.Detections() != 1 {
		t.Errorf("Detections = %d", v.Detections())
	}
}

// TestVerifyDigestMatchesVerify requires the precomputed-reference check
// to decide and count exactly as the two-state check does, for states
// equal to the reference and for states differing from it in the first
// byte, in the last byte and in length.
func TestVerifyDigestMatchesVerify(t *testing.T) {
	clean := []byte("the quick brown fox")
	dirty := append([]byte(nil), clean...)
	dirty[3] ^= 0x40
	last := append([]byte(nil), clean...)
	last[len(last)-1] ^= 0x01
	short := clean[:len(clean)-1]
	for _, det := range []Detector{FNV64{}, CRC32C{}} {
		a, b := NewVerifier(det), NewVerifier(det)
		ref := det.Sum(clean)
		for _, state := range [][]byte{clean, dirty, clean, dirty, dirty, last, short} {
			if got, want := b.VerifyDigest(state, ref), a.Verify(state, clean); got != want {
				t.Fatalf("%s: VerifyDigest = %v, Verify = %v", det.Name(), got, want)
			}
		}
		if a.Checks() != b.Checks() || a.Detections() != b.Detections() {
			t.Fatalf("%s: counts diverged: Verify %d/%d, VerifyDigest %d/%d", det.Name(),
				a.Checks(), a.Detections(), b.Checks(), b.Detections())
		}
		if b.Checks() != 7 || b.Detections() != 5 {
			t.Fatalf("%s: VerifyDigest counted %d checks, %d detections; want 7, 5", det.Name(), b.Checks(), b.Detections())
		}
	}
}

// countingDetector counts its Sum calls. With collide set it digests
// every state to one value, so it misses every corruption.
type countingDetector struct {
	sums    *int
	collide bool
}

func (d countingDetector) Name() string { return "counting" }

func (d countingDetector) Sum(state []byte) Digest {
	*d.sums++
	if d.collide {
		return 7
	}
	return FNV64{}.Sum(state)
}

// TestVerifyEqualBytesTakeNoDigest pins the short-circuit: a state equal
// to its reference passes on one compare, without calling the detector,
// and counts one check and no detection.
func TestVerifyEqualBytesTakeNoDigest(t *testing.T) {
	sums := 0
	v := NewVerifier(countingDetector{sums: &sums})
	clean := []byte("the quick brown fox")
	if !v.Verify(clean, append([]byte(nil), clean...)) {
		t.Fatal("equal bytes failed verification")
	}
	if sums != 0 {
		t.Errorf("equal bytes took %d digests, want 0", sums)
	}
	if v.Checks() != 1 || v.Detections() != 0 {
		t.Errorf("counted %d checks, %d detections; want 1, 0", v.Checks(), v.Detections())
	}
}

// TestVerifyUnequalBytesConsultDetector requires every state that
// differs from its reference, wherever it differs, to be decided by the
// detector's digests, both sides: a detector that collides on every
// input passes them all, so a weak detector's misses are kept rather
// than overruled by the compare.
func TestVerifyUnequalBytesConsultDetector(t *testing.T) {
	sums := 0
	v := NewVerifier(countingDetector{sums: &sums, collide: true})
	clean := []byte("the quick brown fox")
	first := append([]byte(nil), clean...)
	first[0] ^= 0x80
	last := append([]byte(nil), clean...)
	last[len(last)-1] ^= 0x01
	for _, state := range [][]byte{first, last, clean[:len(clean)-1]} {
		if !v.Verify(state, clean) {
			t.Errorf("%q: unequal bytes with equal digests failed verification", state)
		}
	}
	if sums != 6 {
		t.Errorf("three unequal states took %d digests, want 6 (both sides of each)", sums)
	}
	if v.Checks() != 3 || v.Detections() != 0 {
		t.Errorf("counted %d checks, %d detections; want 3, 0", v.Checks(), v.Detections())
	}
}

func TestVerifierDefaultsToFNV(t *testing.T) {
	v := NewVerifier(nil)
	if v.Detector().Name() != "fnv64a" {
		t.Errorf("default detector = %s", v.Detector().Name())
	}
}

func TestEmptyStateDigest(t *testing.T) {
	for _, det := range detectors {
		// Digest of empty state is well-defined and stable.
		if det.Sum(nil) != det.Sum([]byte{}) {
			t.Errorf("%s: nil and empty digests differ", det.Name())
		}
	}
}

func TestSampledVerifierRecallMatchesCoverage(t *testing.T) {
	// A single flipped byte is caught with probability ≈ coverage.
	rng := rngx.NewStream(3, "sampled")
	clean := make([]byte, 1000)
	for i := range clean {
		clean[i] = byte(rng.Intn(256))
	}
	for _, coverage := range []float64{0.1, 0.3, 0.7} {
		v := NewSampledVerifier(FNV64{}, rngx.NewStream(4, "sampled-pos"), coverage)
		const trials = 20000
		caught := 0
		for trial := 0; trial < trials; trial++ {
			dirty := append([]byte(nil), clean...)
			dirty[rng.Intn(len(dirty))] ^= 0xFF
			if !v.Verify(dirty, clean) {
				caught++
			}
		}
		recall := float64(caught) / trials
		if recall < coverage-0.02 || recall > coverage+0.02 {
			t.Errorf("coverage %g: empirical recall %g", coverage, recall)
		}
		if v.Checks() != trials || v.Detections() != caught {
			t.Errorf("counters %d/%d", v.Checks(), v.Detections())
		}
	}
}

func TestSampledVerifierCleanAlwaysPasses(t *testing.T) {
	v := NewSampledVerifier(nil, rngx.NewStream(5, "clean"), 0.5)
	state := []byte("identical state bytes")
	for i := 0; i < 1000; i++ {
		if !v.Verify(state, state) {
			t.Fatal("false positive on identical states")
		}
	}
	if v.Coverage() != 0.5 {
		t.Errorf("Coverage = %g", v.Coverage())
	}
}

func TestSampledVerifierFullCoverageCatchesEverything(t *testing.T) {
	v := NewSampledVerifier(FNV64{}, rngx.NewStream(6, "full"), 1)
	clean := make([]byte, 512)
	dirty := append([]byte(nil), clean...)
	dirty[100] ^= 1
	for i := 0; i < 200; i++ {
		if v.Verify(dirty, clean) {
			t.Fatal("full coverage missed a corruption")
		}
	}
}

func TestSampledVerifierEmptyState(t *testing.T) {
	v := NewSampledVerifier(nil, rngx.NewStream(7, "empty"), 0.5)
	if !v.Verify(nil, nil) {
		t.Error("empty states should verify")
	}
}

func TestSampledVerifierGuards(t *testing.T) {
	for _, f := range []func(){
		func() { NewSampledVerifier(nil, rngx.NewStream(1, "x"), 0) },
		func() { NewSampledVerifier(nil, rngx.NewStream(1, "x"), 1.5) },
		func() { NewSampledVerifier(nil, nil, 0.5) },
		func() {
			v := NewSampledVerifier(nil, rngx.NewStream(1, "x"), 0.5)
			v.Verify([]byte{1}, []byte{1, 2})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
