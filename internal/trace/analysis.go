package trace

import (
	"fmt"
	"math"
	"strings"
)

// Waste breaks a traced execution's wall-clock time into where it went —
// the "waste" accounting of the checkpointing literature (useful work vs
// everything paid to survive errors).
type Waste struct {
	// Total is the traced makespan in seconds.
	Total float64
	// UsefulCompute is first-attempt compute time (attempt 0 work that
	// was eventually committed is indistinguishable from discarded
	// attempt-0 work at the trace level, so this counts every attempt-0
	// compute segment; the difference shows up in ReexecCompute).
	UsefulCompute float64
	// ReexecCompute is compute time on attempts ≥ 1.
	ReexecCompute float64
	// LostCompute is compute time cut short by fail-stop errors.
	LostCompute float64
	// Verify, Checkpoint, Recovery are the protocol costs.
	Verify     float64
	Checkpoint float64
	Recovery   float64
	// Patterns, Attempts, SilentErrors, FailStops are event counts.
	Patterns, Attempts, SilentErrors, FailStops int
}

// Fraction returns part/Total, or 0 on an empty trace.
func (w Waste) Fraction(part float64) float64 {
	if w.Total == 0 {
		return 0
	}
	return part / w.Total
}

// Efficiency is the fraction of the makespan spent in first-attempt
// compute — the canonical waste metric's complement.
func (w Waste) Efficiency() float64 { return w.Fraction(w.UsefulCompute) }

// String renders a percentage breakdown.
func (w Waste) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %.1fs: ", w.Total)
	fmt.Fprintf(&b, "compute %.1f%% (reexec %.1f%%, lost %.1f%%), ",
		100*w.Fraction(w.UsefulCompute), 100*w.Fraction(w.ReexecCompute), 100*w.Fraction(w.LostCompute))
	fmt.Fprintf(&b, "verify %.1f%%, checkpoint %.1f%%, recovery %.1f%%",
		100*w.Fraction(w.Verify), 100*w.Fraction(w.Checkpoint), 100*w.Fraction(w.Recovery))
	return b.String()
}

// Analyze computes the waste breakdown of a trace produced by the
// simulation engine. It reconstructs segment durations from
// consecutive event timestamps; traces must be well-formed (Validate).
func Analyze(events []Event) (Waste, error) {
	if err := Validate(events); err != nil {
		return Waste{}, err
	}
	var w Waste
	// Track the open compute/verify segment.
	var segStart float64
	var segKind Kind
	segAttempt := 0
	open := false

	for _, e := range events {
		switch e.Kind {
		case PatternStart:
			w.Patterns++
		case ComputeStart:
			segStart, segKind, segAttempt, open = e.Time, ComputeStart, e.Attempt, true
			w.Attempts++
		case VerifyStart:
			segStart, segKind, open = e.Time, VerifyStart, true
		case ComputeEnd:
			if open && segKind == ComputeStart {
				d := e.Time - segStart
				if segAttempt == 0 {
					w.UsefulCompute += d
				} else {
					w.ReexecCompute += d
				}
				open = false
			}
		case FailStop:
			w.FailStops++
			if open && segKind == ComputeStart {
				w.LostCompute += e.Time - segStart
				open = false
			}
		case VerifyOK, VerifyFail:
			if open && segKind == VerifyStart {
				w.Verify += e.Time - segStart
				open = false
			}
			if e.Kind == VerifyFail {
				w.SilentErrors++
			}
		case SilentError:
			// Counted via VerifyFail (detection); the strike itself has no
			// duration.
		case Recovery:
			// Recovery duration: the previous event carries the error time;
			// recovery events are emitted at recovery END in the
			// simulators, so the duration is e.Time − (time of the error
			// event), which is the immediately preceding timestamp. We
			// recover it by difference with the last seen event time below.
		case Checkpoint, PatternDone:
		}
	}

	// Second pass for recovery and checkpoint durations: both are emitted
	// at segment end, with the preceding event marking segment start.
	for i := 1; i < len(events); i++ {
		switch events[i].Kind {
		case Recovery:
			w.Recovery += events[i].Time - events[i-1].Time
		case Checkpoint:
			w.Checkpoint += events[i].Time - events[i-1].Time
		}
	}

	if len(events) > 0 {
		w.Total = events[len(events)-1].Time - events[0].Time
	}
	if w.Total < 0 || math.IsNaN(w.Total) {
		return Waste{}, fmt.Errorf("trace: nonsensical makespan %g", w.Total)
	}
	return w, nil
}

// Gantt renders a trace as an ASCII timeline, one row per pattern
// attempt, scaled to width columns — the textual equivalent of the
// paper's Figure 1 drawings. Segment glyphs: '=' compute, 'v' verify,
// 'C' checkpoint, 'R' recovery, 'X' the instant a fail-stop struck,
// '!' the instant a silent error was detected.
func Gantt(events []Event, width int) string {
	if len(events) == 0 {
		return "(empty trace)\n"
	}
	if width < 20 {
		width = 20
	}
	t0 := events[0].Time
	t1 := events[len(events)-1].Time
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	col := func(t float64) int {
		c := int(float64(width-1) * (t - t0) / span)
		if c < 0 {
			c = 0
		}
		if c > width-1 {
			c = width - 1
		}
		return c
	}

	type rowKey struct{ pattern, attempt int }
	rows := map[rowKey][]byte{}
	order := []rowKey{}
	row := func(p, a int) []byte {
		k := rowKey{p, a}
		if r, ok := rows[k]; ok {
			return r
		}
		r := make([]byte, width)
		for i := range r {
			r[i] = ' '
		}
		rows[k] = r
		order = append(order, k)
		return r
	}
	fill := func(r []byte, from, to float64, glyph byte) {
		lo, hi := col(from), col(to)
		for i := lo; i <= hi; i++ {
			if r[i] == ' ' {
				r[i] = glyph
			}
		}
	}

	var segStart float64
	var segKind Kind
	for i, e := range events {
		r := row(e.Pattern, e.Attempt)
		switch e.Kind {
		case ComputeStart, VerifyStart:
			segStart, segKind = e.Time, e.Kind
		case ComputeEnd:
			if segKind == ComputeStart {
				fill(r, segStart, e.Time, '=')
			}
		case VerifyOK, VerifyFail:
			if segKind == VerifyStart {
				fill(r, segStart, e.Time, 'v')
			}
			if e.Kind == VerifyFail {
				r[col(e.Time)] = '!'
			}
		case FailStop:
			if segKind == ComputeStart {
				fill(r, segStart, e.Time, '=')
			}
			r[col(e.Time)] = 'X'
		case Recovery:
			if i > 0 {
				fill(r, events[i-1].Time, e.Time, 'R')
			}
		case Checkpoint:
			if i > 0 {
				fill(r, events[i-1].Time, e.Time, 'C')
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "time %.0fs..%.0fs, %d columns (1 col ≈ %.0fs)\n", t0, t1, width, span/float64(width))
	for _, k := range order {
		fmt.Fprintf(&b, "p%02d a%d |%s|\n", k.pattern, k.attempt, rows[k])
	}
	return b.String()
}
