package engine

import "respeed/internal/detect"

// maxReferenceBytes caps the clean states one reference trajectory
// stores. Against stored bytes a passing verification costs one compare
// instead of a digest, but the bytes cost patterns × state length per
// call: 100 × 2,064 B ≈ 202 KiB at the simulate shape (heat2d 16×16,
// W=5), while a spec with a large state would hold hundreds of MiB (one
// 512×512 heat2d state is 2 MiB). Above the cap a trajectory keeps one
// digest per pattern instead. 4 MiB is twenty times the simulate shape's
// trajectory, and small beside a daemon's heap.
const maxReferenceBytes = 4 << 20

// reference is the clean trajectory every guaranteed verification of a
// run compares against: entry k is the state after sizes[0..k]. It
// holds the states themselves, stride bytes apart, when they fit under
// maxReferenceBytes, and their digests otherwise. Once built it is
// read-only and may be shared by concurrent runs.
type reference struct {
	states  []byte
	stride  int // bytes per stored state; 0 when the trajectory is digests
	digests []detect.Digest
}

// build steps wl through sizes, one advance per pattern — the
// granularity App uses — and records the state after each, reusing the
// buffers when they are large enough. Stored states take no digest. A
// workload whose state changes length cannot be stored at one stride,
// so its trajectory falls back to digests.
func (r *reference) build(wl *Runner, sizes []float64, det detect.Detector) {
	r.stride, r.digests = 0, r.digests[:0]
	for k, w := range sizes {
		wl.advance(w)
		st := wl.state()
		if need := len(st) * len(sizes); k == 0 && need <= maxReferenceBytes {
			if cap(r.states) < need {
				r.states = make([]byte, need)
			}
			r.states, r.stride = r.states[:need], len(st)
		}
		if r.stride > 0 && len(st) != r.stride {
			for i := 0; i < k; i++ {
				r.digests = append(r.digests, det.Sum(r.state(i)))
			}
			r.stride = 0
		}
		if r.stride > 0 {
			copy(r.state(k), st)
		} else {
			r.digests = append(r.digests, det.Sum(st))
		}
	}
}

// state returns stored entry k.
func (r *reference) state(k int) []byte { return r.states[k*r.stride : (k+1)*r.stride] }

// verify checks state against entry k: by bytes when the trajectory
// stores them (a digest only on a mismatch), by digest otherwise.
func (r *reference) verify(v *detect.Verifier, k int, state []byte) bool {
	if r.stride == 0 {
		return v.VerifyDigest(state, r.digests[k])
	}
	return v.Verify(state, r.state(k))
}
