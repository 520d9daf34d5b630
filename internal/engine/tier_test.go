package engine

import "testing"

// A checkpoint slot keeps its own copy of the committed state: mutating
// the source after the commit leaves the recovered bytes unchanged.
func TestSlotCommitCopiesBytes(t *testing.T) {
	var s slot
	src := []byte("original")
	s.commit(src, 3)
	src[0] = 'X' // mutate the source after the commit
	state, pattern, err := s.recoverView()
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "original" || pattern != 3 {
		t.Errorf("recovered %q at pattern %d, want %q at 3", state, pattern, "original")
	}
	want := CkptStats{Commits: 1, Recoveries: 1, BytesWritten: 8, BytesRead: 8}
	if s.stats != want {
		t.Errorf("stats %+v, want %+v", s.stats, want)
	}
}

// An empty slot refuses a recovery, both before its first commit and
// after a reset, which also zeroes its counters.
func TestSlotRecoverEmpty(t *testing.T) {
	var s slot
	if _, _, err := s.recoverView(); err == nil {
		t.Fatal("recover before any commit succeeded")
	}
	if s.stats != (CkptStats{}) {
		t.Errorf("stats after a refused recover %+v, want zero", s.stats)
	}

	s.commit([]byte("original"), 3)
	s.reset()
	if _, _, err := s.recoverView(); err == nil {
		t.Error("recover after reset succeeded")
	}
	if s.stats != (CkptStats{}) {
		t.Errorf("stats after reset %+v, want zero", s.stats)
	}
}
