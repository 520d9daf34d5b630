// Package trace records structured event traces of simulated executions
// and exports them as JSON lines. Traces make the simulator's behaviour
// inspectable — the three schedules of the paper's Figure 1 (error-free,
// fail-stop, silent) can be reproduced event by event — and they back the
// pattern-anatomy bench.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Kind enumerates trace event types.
type Kind string

// Event kinds emitted by the simulator.
const (
	PatternStart Kind = "pattern-start"
	ComputeStart Kind = "compute-start"
	ComputeEnd   Kind = "compute-end"
	VerifyStart  Kind = "verify-start"
	VerifyOK     Kind = "verify-ok"
	VerifyFail   Kind = "verify-fail"
	SilentError  Kind = "silent-error"
	FailStop     Kind = "fail-stop"
	Recovery     Kind = "recovery"
	Checkpoint   Kind = "checkpoint"
	PatternDone  Kind = "pattern-done"
)

// Event is one timestamped occurrence in a simulated execution.
type Event struct {
	// Time is the simulation clock in seconds at which the event occurs.
	Time float64 `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Pattern is the index of the pattern being executed.
	Pattern int `json:"pattern"`
	// Attempt counts executions of the current pattern (0 = first run,
	// ≥1 = re-executions).
	Attempt int `json:"attempt"`
	// Speed is the execution speed in effect, when meaningful.
	Speed float64 `json:"speed,omitempty"`
	// Detail carries extra free-form context.
	Detail string `json:"detail,omitempty"`
}

// Recorder accumulates events. The zero value discards nothing and is
// ready to use; a nil *Recorder is valid and ignores all appends, so the
// simulator can run untraced at zero cost.
type Recorder struct {
	events []Event
	limit  int
}

// New returns a recorder that keeps at most limit events (0 = unlimited).
func New(limit int) *Recorder { return &Recorder{limit: limit} }

// Append records an event. Appending to a nil recorder is a no-op.
func (r *Recorder) Append(e Event) {
	if r == nil {
		return
	}
	if r.limit > 0 && len(r.events) >= r.limit {
		return
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events in order. The returned slice is the
// recorder's backing store; callers must not modify it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len returns the number of recorded events (0 for nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Reset drops all recorded events.
func (r *Recorder) Reset() {
	if r != nil {
		r.events = r.events[:0]
	}
}

// CountKind returns how many events of the given kind were recorded.
func (r *Recorder) CountKind(k Kind) int {
	if r == nil {
		return 0
	}
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// WriteJSONL writes the trace as one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range r.events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: encode: %w", err)
		}
	}
	return nil
}

// Render formats the trace as a human-readable schedule, one event per
// line, resembling the annotated timelines of the paper's Figure 1.
func (r *Recorder) Render() string {
	if r == nil || len(r.events) == 0 {
		return "(empty trace)\n"
	}
	var b strings.Builder
	for _, e := range r.events {
		fmt.Fprintf(&b, "%12.2fs  p%02d a%d  %-14s", e.Time, e.Pattern, e.Attempt, e.Kind)
		if e.Speed > 0 {
			fmt.Fprintf(&b, " σ=%.2f", e.Speed)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, "  %s", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks structural invariants of a trace: non-decreasing time,
// every verify-fail followed by a recovery, every pattern-done preceded
// by a verify-ok and a checkpoint for that pattern. It returns the first
// violation found.
func Validate(events []Event) error {
	prev := -1.0
	var lastKind Kind
	for i, e := range events {
		if e.Time < prev {
			return fmt.Errorf("trace: time goes backwards at event %d (%.3f < %.3f)", i, e.Time, prev)
		}
		prev = e.Time
		switch e.Kind {
		case Recovery:
			if lastKind != VerifyFail && lastKind != FailStop {
				return fmt.Errorf("trace: recovery at event %d not preceded by an error (got %s)", i, lastKind)
			}
		case Checkpoint:
			if lastKind != VerifyOK {
				return fmt.Errorf("trace: checkpoint at event %d without passing verification (got %s)", i, lastKind)
			}
		}
		lastKind = e.Kind
	}
	return nil
}
