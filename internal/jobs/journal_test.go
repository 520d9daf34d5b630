package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildJournal writes a realistic journal — submit + k completed shard
// records from a real campaign — and returns its bytes plus the byte
// offset at which each line ends (exclusive, including the '\n').
func buildJournal(t *testing.T, k int) ([]byte, []int, Campaign) {
	t.Helper()
	camp, err := Campaign{
		Kind:    KindMonteCarlo,
		Configs: []string{"Hera/XScale"},
		Rhos:    []float64{3},
		N:       500,
		Seed:    5,
	}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	shards := camp.planShards()
	if k > len(shards) {
		t.Fatalf("campaign has only %d shards", len(shards))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "j000001.journal")
	jn, err := createJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.append(record{T: recordSubmit, ID: "j000001", Campaign: &camp, Shards: len(shards)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		sr, err := camp.runShard(context.Background(), shards[i])
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.append(record{T: recordShard, Idx: i, Result: raw}); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lineEnds []int
	for i, b := range data {
		if b == '\n' {
			lineEnds = append(lineEnds, i+1)
		}
	}
	if len(lineEnds) != k+1 {
		t.Fatalf("journal has %d lines, want %d", len(lineEnds), k+1)
	}
	return data, lineEnds, camp
}

// replayBytes writes data to a fresh file and replays it, converting a
// panic into a test failure (the property under test: never panic).
func replayBytes(t *testing.T, data []byte) (rep *replayed, err error) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "j000001.journal")
	if werr := os.WriteFile(path, data, 0o644); werr != nil {
		t.Fatal(werr)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("ReplayJournal panicked: %v (input %d bytes)", r, len(data))
		}
	}()
	return ReplayJournal(path)
}

// completeLinesBefore counts how many records are recoverable from
// data[:n]: a record is committed once all its bytes except possibly
// the trailing newline are present (the CRC frames the JSON, not the
// terminator).
func completeLinesBefore(lineEnds []int, n int) int {
	c := 0
	for _, end := range lineEnds {
		if end-1 <= n {
			c++
		}
	}
	return c
}

// TestJournalTruncationEveryOffset is the acceptance property for torn
// writes: for EVERY prefix of a valid journal, replay either resumes
// cleanly with exactly the durably committed records, or (when even the
// submit record is incomplete) discards the never-observable job. It
// must never panic and never drop a fully committed shard.
func TestJournalTruncationEveryOffset(t *testing.T) {
	const k = 6
	data, lineEnds, _ := buildJournal(t, k)
	for n := 0; n <= len(data); n++ {
		rep, err := replayBytes(t, data[:n])
		if err != nil {
			t.Fatalf("truncation at %d produced an error (prefixes are always clean): %v", n, err)
		}
		full := completeLinesBefore(lineEnds, n)
		if full == 0 {
			if rep != nil {
				t.Fatalf("truncation at %d: submit incomplete but job recovered", n)
			}
			continue
		}
		if rep == nil {
			t.Fatalf("truncation at %d: submit committed (%d full lines) but job discarded", n, full)
		}
		wantShards := full - 1 // minus the submit line
		if len(rep.Done) != wantShards {
			t.Fatalf("truncation at %d: recovered %d shards, want %d (never drop committed shards)",
				n, len(rep.Done), wantShards)
		}
		for i := 0; i < wantShards; i++ {
			if _, ok := rep.Done[i]; !ok {
				t.Fatalf("truncation at %d: committed shard %d missing", n, i)
			}
		}
		completeEnd := 0
		for _, end := range lineEnds {
			if end-1 <= n {
				completeEnd = min(end, n)
			}
		}
		if torn := n > completeEnd; torn != rep.TornTail {
			t.Fatalf("truncation at %d: TornTail=%v, want %v", n, rep.TornTail, torn)
		}
	}
}

// TestJournalCorruptionEveryOffset flips every byte of a valid journal
// (one at a time) and asserts the trichotomy: replay either reports a
// typed *CorruptError, discards a job whose submit record was damaged,
// or resumes cleanly having dropped only tail records at/after the
// damaged line — and every record it does recover is byte-identical to
// the original. Never a panic, never a silently altered shard.
func TestJournalCorruptionEveryOffset(t *testing.T) {
	const k = 4
	data, lineEnds, _ := buildJournal(t, k)
	orig, err := replayBytes(t, data)
	if err != nil || orig == nil {
		t.Fatalf("pristine journal must replay: %v", err)
	}
	lineOf := func(off int) int {
		for i, end := range lineEnds {
			if off < end {
				return i
			}
		}
		return len(lineEnds) - 1
	}
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20 // flips case/space in text, always changes the byte
		rep, err := replayBytes(t, mut)
		damaged := lineOf(off)
		switch {
		case err != nil:
			var cerr *CorruptError
			if !errors.As(err, &cerr) {
				t.Fatalf("flip at %d: untyped error %T %v", off, err, err)
			}
		case rep == nil:
			if damaged != 0 {
				t.Fatalf("flip at %d (line %d): job discarded but submit was intact", off, damaged)
			}
		default:
			// Clean resume: records on lines strictly before the damaged
			// one must all be present and byte-identical; the damaged
			// line and later may only have been dropped, never altered.
			for i := 0; i < damaged-1 && i < k; i++ {
				got, ok := rep.Done[i]
				if !ok {
					t.Fatalf("flip at %d (line %d): intact shard %d dropped", off, damaged, i)
				}
				if want := orig.Done[i]; !bytes.Equal(got, want) {
					t.Fatalf("flip at %d: shard %d bytes altered", off, i)
				}
			}
			for i, got := range rep.Done {
				want, ok := orig.Done[i]
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("flip at %d: recovered shard %d does not match original", off, i)
				}
			}
		}
	}
}

// TestReplayEdgeCases covers empty and foreign files.
func TestReplayEdgeCases(t *testing.T) {
	if rep, err := replayBytes(t, nil); rep != nil || err != nil {
		t.Fatalf("empty journal: %+v %v", rep, err)
	}
	if rep, err := replayBytes(t, []byte("garbage with no newline")); rep != nil || err != nil {
		t.Fatalf("single torn garbage line: %+v %v", rep, err)
	}
	_, err := replayBytes(t, []byte("garbage line one\ngarbage line two\n"))
	var cerr *CorruptError
	if !errors.As(err, &cerr) {
		t.Fatalf("multi-line garbage should be typed corruption, got %v", err)
	}
	if cerr.Line != 1 {
		t.Fatalf("corruption should point at line 1, got %d", cerr.Line)
	}
}

// TestManagerSurvivesCorruptJournal: a manager opened over a directory
// with a damaged journal must not fail wholesale — the damaged job is
// surfaced as failed with the corruption message, and new work proceeds.
func TestManagerSurvivesCorruptJournal(t *testing.T) {
	data, _, _ := buildJournal(t, 3)
	mut := append([]byte(nil), data...)
	mut[12] ^= 0xff // damage the submit line of a multi-line journal
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j000001.journal"), mut, 0o644); err != nil {
		t.Fatal(err)
	}
	m := mustOpen(t, Options{Dir: dir})
	defer m.Close()
	st, err := m.Status("j000001")
	if err != nil {
		t.Fatalf("corrupt job should be retained: %v", err)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("corrupt job should be failed with detail, got %+v", st)
	}
	// The manager keeps working and numbers past the damaged job.
	st2, err := m.Submit(Campaign{Kind: KindSweep, Configs: []string{"Hera/XScale"}, Rhos: []float64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != "j000002" {
		t.Fatalf("new job id %s, want j000002", st2.ID)
	}
	if fin := waitDone(t, m, st2.ID); fin.State != StateDone {
		t.Fatalf("new job ended %s", fin.State)
	}
}
