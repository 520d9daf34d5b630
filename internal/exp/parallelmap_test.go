package exp

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"respeed/internal/mathx"
)

func TestParallelMapOrderedResults(t *testing.T) {
	xs := mathx.Linspace(0, 99, 100)
	vals, err := parallelMap(xs, 8, func(i int, x float64) (float64, error) {
		return x * x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 100 {
		t.Fatalf("len = %d", len(vals))
	}
	for i, v := range vals {
		if v != xs[i]*xs[i] {
			t.Errorf("point %d value %g, want %g", i, v, xs[i]*xs[i])
		}
	}
}

func TestParallelMapActuallyParallel(t *testing.T) {
	var peak, cur atomic.Int32
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		parallelMap(make([]float64, 8), 4, func(i int, _ float64) (int, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-block
			cur.Add(-1)
			return i, nil
		})
	}()
	// Release all workers after they have had a chance to pile up.
	for i := 0; i < 8; i++ {
		block <- struct{}{}
	}
	<-done
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d, want ≥ 2", peak.Load())
	}
}

func TestParallelMapZeroWorkersDefaults(t *testing.T) {
	vals, err := parallelMap([]float64{1, 2, 3}, 0, func(i int, x float64) (float64, error) {
		return 2 * x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 2 || vals[1] != 4 || vals[2] != 6 {
		t.Errorf("values %v", vals)
	}
}

func TestParallelMapEmpty(t *testing.T) {
	vals, err := parallelMap(nil, 4, func(i int, x float64) (int, error) { return 0, nil })
	if err != nil || len(vals) != 0 {
		t.Errorf("empty map returned %v, %v", vals, err)
	}
}

func TestParallelMapNoErrorPath(t *testing.T) {
	vals, err := parallelMap([]float64{1}, 1, func(i int, x float64) (int, error) { return 7, nil })
	if err != nil {
		t.Errorf("error = %v", err)
	}
	if len(vals) != 1 || vals[0] != 7 {
		t.Errorf("values %v, want [7]", vals)
	}
}

// TestParallelMapLowestIndexErrorWins pins the error contract: whatever
// order the points finish in, the lowest-index error is returned,
// wrapped and naming its point, with no partial results.
func TestParallelMapLowestIndexErrorWins(t *testing.T) {
	first, later := errors.New("first"), errors.New("later")
	for _, workers := range []int{1, 2, 8} {
		vals, err := parallelMap([]string{"a", "b", "c", "d", "e"}, workers, func(i int, s string) (int, error) {
			switch i {
			case 2:
				return 0, first
			case 4:
				return 0, later
			}
			return len(s), nil
		})
		if !errors.Is(err, first) || vals != nil {
			t.Fatalf("workers %d: got %v, %v; want point 2's error and no results", workers, vals, err)
		}
		if !strings.Contains(err.Error(), "point 2") {
			t.Errorf("workers %d: error does not identify the point index: %v", workers, err)
		}
	}
}

// TestParallelMapError pins that a sweep whose every point fails
// returns an error and no results.
func TestParallelMapError(t *testing.T) {
	vals, err := parallelMap([]int{1, 2}, 2, func(i int, v int) (int, error) {
		return 0, fmt.Errorf("err-%d", v)
	})
	if err == nil || vals != nil {
		t.Fatalf("got %v, %v; want an error and no results", vals, err)
	}
	if !strings.Contains(err.Error(), "err-1") {
		t.Errorf("error is not point 0's: %v", err)
	}
}

// TestParallelMapErrorsCarryNoSyntheticX pins that parallelMap, which
// has no abscissa, identifies a failing point by index only, never with
// a fabricated "x=<index>".
func TestParallelMapErrorsCarryNoSyntheticX(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := parallelMap([]string{"a", "b", "c"}, 1, func(i int, s string) (int, error) {
		if i == 2 {
			return 0, sentinel
		}
		return len(s), nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("error %v does not wrap sentinel", err)
	}
	if strings.Contains(err.Error(), "x=") {
		t.Errorf("error mentions a synthetic abscissa: %v", err)
	}
	if !strings.Contains(err.Error(), "point 2") {
		t.Errorf("error does not identify the point index: %v", err)
	}
}

// TestParallelMapPanicBecomesError pins that a panicking point turns
// into that point's error instead of taking down the sweep, and ranks
// with returned errors by index.
func TestParallelMapPanicBecomesError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := parallelMap([]int{1, 2, 3}, 3, func(i int, v int) (int, error) {
		switch i {
		case 1:
			panic("kaboom")
		case 2:
			return 0, sentinel
		}
		return v, nil
	})
	if err == nil || errors.Is(err, sentinel) {
		t.Fatalf("want point 1's panic, got %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "point 1") || !strings.Contains(msg, "kaboom") {
		t.Errorf("panic error does not name its point and value: %v", err)
	}
}

func TestParallelMapPanicCarriesNoSyntheticX(t *testing.T) {
	_, err := parallelMap([]int{1}, 1, func(i int, v int) (int, error) { panic("kaboom") })
	if err == nil {
		t.Fatal("panic was not converted to error")
	}
	if strings.Contains(err.Error(), "x=") {
		t.Errorf("panic error mentions a synthetic abscissa: %v", err)
	}
}

func TestParallelMapDeterministicAcrossWorkerCounts(t *testing.T) {
	xs := mathx.Logspace(1e-6, 1e-2, 60)
	eval := func(i int, x float64) (float64, error) {
		return math.Sqrt(300/x) + float64(i), nil
	}
	seq, err1 := parallelMap(xs, 1, eval)
	par, err2 := parallelMap(xs, 16, eval)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d differs between 1 and 16 workers", i)
		}
	}
}

func TestParallelMapArbitraryInputs(t *testing.T) {
	vals, err := parallelMap([]string{"a", "bb", "ccc"}, 2, func(i int, s string) (int, error) {
		return len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i+1 {
			t.Errorf("value %d = %d", i, v)
		}
	}
}
