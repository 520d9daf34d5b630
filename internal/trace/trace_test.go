package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleTrace() *Recorder {
	r := New(0)
	r.Append(Event{Time: 0, Kind: PatternStart, Pattern: 0, Attempt: 0})
	r.Append(Event{Time: 0, Kind: ComputeStart, Pattern: 0, Attempt: 0, Speed: 0.4})
	r.Append(Event{Time: 100, Kind: ComputeEnd, Pattern: 0, Attempt: 0, Speed: 0.4})
	r.Append(Event{Time: 100, Kind: VerifyStart, Pattern: 0, Attempt: 0, Speed: 0.4})
	r.Append(Event{Time: 110, Kind: VerifyFail, Pattern: 0, Attempt: 0, Detail: "digest mismatch"})
	r.Append(Event{Time: 110, Kind: Recovery, Pattern: 0, Attempt: 0})
	r.Append(Event{Time: 410, Kind: ComputeStart, Pattern: 0, Attempt: 1, Speed: 0.8})
	r.Append(Event{Time: 460, Kind: ComputeEnd, Pattern: 0, Attempt: 1, Speed: 0.8})
	r.Append(Event{Time: 460, Kind: VerifyStart, Pattern: 0, Attempt: 1, Speed: 0.8})
	r.Append(Event{Time: 465, Kind: VerifyOK, Pattern: 0, Attempt: 1})
	r.Append(Event{Time: 465, Kind: Checkpoint, Pattern: 0, Attempt: 1})
	r.Append(Event{Time: 765, Kind: PatternDone, Pattern: 0, Attempt: 1})
	return r
}

func TestAppendAndCount(t *testing.T) {
	r := sampleTrace()
	if r.Len() != 12 {
		t.Errorf("Len = %d", r.Len())
	}
	if got := r.CountKind(VerifyFail); got != 1 {
		t.Errorf("CountKind(VerifyFail) = %d", got)
	}
	if got := r.CountKind(Checkpoint); got != 1 {
		t.Errorf("CountKind(Checkpoint) = %d", got)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Append(Event{Kind: Checkpoint}) // must not panic
	if r.Len() != 0 || r.Events() != nil || r.CountKind(Checkpoint) != 0 {
		t.Error("nil recorder should be inert")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	if got := r.Render(); got != "(empty trace)\n" {
		t.Errorf("Render on nil = %q", got)
	}
}

func TestLimit(t *testing.T) {
	r := New(3)
	for i := 0; i < 10; i++ {
		r.Append(Event{Time: float64(i), Kind: PatternStart})
	}
	if r.Len() != 3 {
		t.Errorf("limited recorder kept %d events", r.Len())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := sampleTrace()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Event
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		got = append(got, e)
	}
	want := r.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip lost events: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestRenderContainsSchedule(t *testing.T) {
	out := sampleTrace().Render()
	for _, want := range []string{"verify-fail", "recovery", "checkpoint", "σ=0.80", "digest mismatch"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := Validate(sampleTrace().Events()); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsTimeTravel(t *testing.T) {
	events := []Event{
		{Time: 10, Kind: PatternStart},
		{Time: 5, Kind: ComputeStart},
	}
	if err := Validate(events); err == nil {
		t.Error("backwards time should be rejected")
	}
}

func TestValidateRejectsOrphanRecovery(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: PatternStart},
		{Time: 1, Kind: Recovery},
	}
	if err := Validate(events); err == nil {
		t.Error("recovery without preceding error should be rejected")
	}
}

func TestValidateRejectsUnverifiedCheckpoint(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: ComputeEnd},
		{Time: 1, Kind: Checkpoint},
	}
	if err := Validate(events); err == nil {
		t.Error("checkpoint without verify-ok should be rejected")
	}
}

func TestValidateAcceptsFailStopRecovery(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: ComputeStart},
		{Time: 5, Kind: FailStop},
		{Time: 5, Kind: Recovery},
	}
	if err := Validate(events); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	r := sampleTrace()
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset did not clear events")
	}
}
