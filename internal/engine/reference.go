package engine

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"sync"

	"respeed/internal/detect"
)

// MaxReferenceBytes caps the clean states one reference trajectory
// stores. Against stored bytes a passing verification costs one compare
// instead of a digest, but the bytes cost patterns × state length for
// as long as the trajectory lives: 100 × 2,064 B ≈ 202 KiB at the
// simulate shape (heat2d 16×16, W=5), while a spec with a large state
// would hold hundreds of MiB (one 512×512 heat2d state is 2 MiB). Above
// the cap a trajectory keeps one digest per pattern instead. 4 MiB is
// twenty times the simulate shape's trajectory, and small beside a
// daemon's heap. spec.Validate also refuses a workload state, and a
// node count (MaxNodes), that alone would outgrow it.
const MaxReferenceBytes = 4 << 20

// reference is the clean trajectory every guaranteed verification of a
// run compares against: entry k is the state after sizes[0..k]. It
// holds the states themselves, stride bytes apart, when they fit under
// MaxReferenceBytes, and their digests otherwise. It is immutable once
// built, so concurrent runs, and every call that shares it through
// referenceMemo, read it without synchronization.
type reference struct {
	states  []byte
	stride  int // bytes per stored state; 0 when the trajectory is digests
	digests []detect.Digest
}

// buildReference steps wl through sizes into a trajectory, then checks
// a stored one against second, an independent runner at the same
// initial state. Runs replay a stored trajectory instead of stepping,
// so this check is what stepping in every attempt used to prove: that
// the workload's runners step alike. A clone that steps other physics,
// shares its original's memory or reads state shared across clones
// fails the build at the first pattern whose bytes differ. A digest
// trajectory is not checked: its runs step, and one that leaves it
// fails a verification with no error injected.
func buildReference(wl, second *Runner, sizes []float64, det detect.Detector) (*reference, error) {
	r := newReference(wl, sizes, det)
	if r.stride == 0 {
		return r, nil
	}
	for k, w := range sizes {
		second.advance(w)
		if !bytes.Equal(second.state(), r.state(k)) {
			return nil, fmt.Errorf("engine: workload %q left its clean trajectory at pattern %d: two runners from one initial state stepped to different bytes", wl.name, k)
		}
	}
	return r, nil
}

// newReference steps wl through sizes, one advance per pattern — the
// granularity App uses — and records the state after each. Stored
// states take no digest. A workload whose state changes length cannot
// be stored at one stride, so its trajectory falls back to digests
// taken with det.
func newReference(wl *Runner, sizes []float64, det detect.Detector) *reference {
	r := new(reference)
	for k, w := range sizes {
		wl.advance(w)
		st := wl.state()
		if need := len(st) * len(sizes); k == 0 && need <= MaxReferenceBytes {
			r.states, r.stride = make([]byte, need), len(st)
		}
		if r.stride > 0 && len(st) != r.stride {
			for i := 0; i < k; i++ {
				r.digests = append(r.digests, det.Sum(r.state(i)))
			}
			r.states, r.stride = nil, 0
		}
		if r.stride > 0 {
			copy(r.state(k), st)
		} else {
			r.digests = append(r.digests, det.Sum(st))
		}
	}
	return r
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

// referenceMemoBytes bounds what referenceMemo holds, keys included:
// four trajectories at MaxReferenceBytes, or about eighty at the
// simulate shape. A daemon needs one trajectory per workload and
// pattern sequence it serves, so the bound only guards pathological
// use; when an entry would cross it the memo evicts everything rather
// than tracking recency, as core.GridFor's cache does.
const referenceMemoBytes = 4 * MaxReferenceBytes

// MaxPatterns bounds the patterns of one run: the memo key of its
// trajectory holds an 8-byte size per pattern and the digest form an
// 8-byte digest, so a longer run could never be memoized. Below it
// PatternSizes also terminates, since subtracting w from at most
// MaxPatterns·w always shrinks what remains.
const MaxPatterns = referenceMemoBytes / 16

// referenceMemo holds every clean trajectory a scenario campaign has
// stepped, once per process per key: a trajectory is a pure function
// of the workload (its witness), the pattern sizes and, for the digest
// form only, the detector. Entries chain under a hash of the workload
// and the sizes, and a lookup compares those in full. The counters
// read out by ReferenceMemoStats are kept under the same lock.
var referenceMemo struct {
	sync.Mutex
	seed    maphash.Seed
	entries map[uint64][]*memoEntry
	bytes   int

	hits, misses, evictions uint64
}

// MemoStats counts, since the process started, the trajectory memo's
// lookups that found their trajectory (Hits) or went on to build one
// (Misses) and the entries it dropped when it emptied itself to make
// room (Evictions); Bytes is what it holds now, keys included.
type MemoStats struct {
	Hits, Misses, Evictions uint64
	Bytes                   int
}

// ReferenceMemoStats reads the memo's counters. They are process-wide:
// every scenario call in the process shares the memo.
func ReferenceMemoStats() MemoStats {
	referenceMemo.Lock()
	defer referenceMemo.Unlock()
	return MemoStats{Hits: referenceMemo.hits, Misses: referenceMemo.misses,
		Evictions: referenceMemo.evictions, Bytes: referenceMemo.bytes}
}

func init() { referenceMemo.seed = maphash.MakeSeed() }

// memoEntry is one memoized trajectory with its key. The key's state
// and sizes alias the campaign that stepped the trajectory; a campaign
// never writes them.
type memoEntry struct {
	wl    workloadID
	sizes []float64
	det   detect.Detector // the digest form's detector; nil for stored states
	ref   *reference
}

// size is the bytes e holds: the trajectory and its key.
func (e *memoEntry) size() int {
	return len(e.ref.states) + 8*len(e.ref.digests) + len(e.wl.name) + len(e.wl.state) + 8*len(e.sizes)
}

// memoHash hashes the workload witness and the pattern sizes' bits.
func memoHash(wl *workloadID, sizes []float64) uint64 {
	const prime = 0x100000001b3
	h := maphash.Bytes(referenceMemo.seed, wl.state)
	h = (h ^ maphash.String(referenceMemo.seed, wl.name)) * prime
	h = (h ^ wl.fp) * prime
	for _, w := range sizes {
		h = (h ^ math.Float64bits(w)) * prime
	}
	return h
}

// matches reports whether e is the trajectory of (wl, sizes, det).
func (e *memoEntry) matches(wl *workloadID, sizes []float64, det detect.Detector) bool {
	if !e.wl.same(wl) || len(e.sizes) != len(sizes) {
		return false
	}
	for i, w := range sizes {
		if math.Float64bits(e.sizes[i]) != math.Float64bits(w) {
			return false
		}
	}
	// Stored states serve every detector. A digest entry holds only a
	// deeply comparable detector, so == cannot panic.
	return e.ref.stride > 0 || e.det == det
}

// lookupReference returns the memoized trajectory of (wl, sizes, det)
// under hash h, or nil. It allocates nothing.
func lookupReference(h uint64, wl *workloadID, sizes []float64, det detect.Detector) *reference {
	referenceMemo.Lock()
	defer referenceMemo.Unlock()
	for _, e := range referenceMemo.entries[h] {
		if e.matches(wl, sizes, det) {
			referenceMemo.hits++
			return e.ref
		}
	}
	referenceMemo.misses++
	return nil
}

// storeReference memoizes ref as the trajectory of (wl, sizes, det)
// under hash h and returns the trajectory callers should share: ref, or
// the one a concurrent call stored first. A trajectory larger than the
// whole budget, or in digest form under a detector that == cannot
// compare, is returned without being memoized.
func storeReference(h uint64, wl *workloadID, sizes []float64, det detect.Detector, ref *reference) *reference {
	e := &memoEntry{wl: *wl, sizes: sizes, ref: ref}
	if ref.stride == 0 {
		if !reflect.ValueOf(det).Comparable() {
			return ref
		}
		e.det = det
	}
	size := e.size()
	if size > referenceMemoBytes {
		return ref
	}
	referenceMemo.Lock()
	defer referenceMemo.Unlock()
	for _, o := range referenceMemo.entries[h] {
		if o.matches(wl, sizes, det) {
			return o.ref
		}
	}
	if referenceMemo.entries == nil || referenceMemo.bytes+size > referenceMemoBytes {
		for _, chain := range referenceMemo.entries {
			referenceMemo.evictions += uint64(len(chain))
		}
		referenceMemo.entries = make(map[uint64][]*memoEntry)
		referenceMemo.bytes = 0
	}
	referenceMemo.entries[h] = append(referenceMemo.entries[h], e)
	referenceMemo.bytes += size
	return ref
}
