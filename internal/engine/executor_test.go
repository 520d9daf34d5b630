package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFanOutRunsEveryChunk(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		var ran [100]atomic.Int32
		err := SharedExecutor().FanOut(context.Background(), len(ran), workers, func(c int) error {
			ran[c].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for c := range ran {
			if got := ran[c].Load(); got != 1 {
				t.Fatalf("workers=%d: chunk %d ran %d times", workers, c, got)
			}
		}
	}
}

func TestFanOutZeroChunks(t *testing.T) {
	err := SharedExecutor().FanOut(context.Background(), 0, 4, func(int) error {
		t.Error("chunk function called for zero chunks")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFanOutPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := SharedExecutor().FanOut(ctx, 8, 4, func(int) error {
		t.Error("chunk ran under a pre-cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFanOutCancelPrompt is the PR's acceptance criterion: cancelling
// mid-replication returns promptly — in far less than the time the
// remaining chunks would need — with the context's error. Chunk
// functions poll ctx (as the replication paths do), so no chunk runs to
// completion after the cancel.
func TestFanOutCancelPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	var startedOnce sync.Once
	err := make(chan error, 1)
	go func() {
		err <- SharedExecutor().FanOut(ctx, 64, 4, func(c int) error {
			startedOnce.Do(func() { close(started) })
			// A cancellation-aware chunk: parks until cancel instead of
			// computing, like the replication loops' ctx polls.
			<-ctx.Done()
			return ctx.Err()
		})
	}()
	<-started
	cancel()
	select {
	case e := <-err:
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("FanOut returned %v, want context.Canceled", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FanOut did not return promptly after cancel")
	}
}

// TestFanOutCancelSkipsChunks verifies cancellation stops the feed: with
// sequential workers, chunks after the cancelling one never start.
func TestFanOutCancelSkipsChunks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := SharedExecutor().FanOut(ctx, 1000, 1, func(c int) error {
		if c == 3 {
			cancel()
		}
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > 4 {
		t.Fatalf("%d chunks ran after a cancel at chunk 3", n)
	}
}

// TestFanOutFirstErrorAborts checks both halves of the abort contract
// on two workers: once chunk 5's error is recorded no further chunk
// starts, and the feed stops. Chunks after 5 hold their worker until
// the abort is recorded, so the feed cannot drain the remaining chunks
// through the other worker while the failing one is descheduled
// between returning its error and recording it. The outcome is then
// fixed: chunks 0–6 at most start, and at most one chunk is fed after
// them (to the failing worker, which skips it).
func TestFanOutFirstErrorAborts(t *testing.T) {
	boom := fmt.Errorf("chunk failure")
	task := &fanTask{ctx: context.Background(), idx: make(chan int)}
	var started [1000]atomic.Bool
	task.run = func(c int) error {
		started[c].Store(true)
		switch {
		case c == 5:
			return boom
		case c > 5:
			deadline := time.Now().Add(10 * time.Second)
			for !task.aborted.Load() {
				if time.Now().After(deadline) {
					return fmt.Errorf("chunk %d: the abort was never recorded", c)
				}
				runtime.Gosched()
			}
		}
		return nil
	}
	fed := SharedExecutor().feed(task, len(started), 2)
	if err := task.firstErr(); !errors.Is(err, boom) {
		t.Fatalf("first error = %v, want the chunk error", err)
	}
	for c := 7; c < len(started); c++ {
		if started[c].Load() {
			t.Fatalf("chunk %d started after chunk 5's error was recorded", c)
		}
	}
	if fed > 8 {
		t.Errorf("fed %d chunks; the feed must stop once the abort is recorded", fed)
	}
	// And through the public entry point: the chunk error is returned.
	err := SharedExecutor().FanOut(context.Background(), 1000, 2, func(c int) error {
		if c == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("FanOut err = %v, want the chunk error", err)
	}
}

// TestFanOutNested exercises a fan-out issued from inside a running
// chunk (sweep points spawning Monte-Carlo replications): the saturated
// pool must recruit transient helpers instead of deadlocking.
func TestFanOutNested(t *testing.T) {
	e := NewExecutor(2)
	defer e.Close()
	var inner atomic.Int32
	err := e.FanOut(context.Background(), 4, 2, func(int) error {
		return e.FanOut(context.Background(), 8, 2, func(int) error {
			inner.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := inner.Load(); got != 32 {
		t.Fatalf("inner chunks ran %d times, want 32", got)
	}
}

// TestFanOutConcurrency verifies the blocking feed actually delivers the
// requested concurrency: with 4 workers, at least 2 chunks must be in
// flight simultaneously even under adversarial scheduling.
func TestFanOutConcurrency(t *testing.T) {
	block := make(chan struct{})
	var cur, peak atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- SharedExecutor().FanOut(context.Background(), 8, 4, func(int) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-block
			cur.Add(-1)
			return nil
		})
	}()
	deadline := time.After(10 * time.Second)
	for peak.Load() < 2 {
		select {
		case <-deadline:
			close(block)
			t.Fatalf("peak concurrency %d, want ≥ 2", peak.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestReplicateCancelReturnsPromptly pins the end-to-end acceptance
// behavior on the real replication path: cancelling a large
// ReplicatePatternParallelCtx run returns the context error well before
// the work could have finished, without waiting out a chunk boundary.
func TestReplicateCancelReturnsPromptly(t *testing.T) {
	plan := Plan{W: 500, Sigma1: 1, Sigma2: 0.8}
	costs := Costs{C: 10, V: 2, R: 5, LambdaS: 1e-3}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := ReplicatePatternParallelCtx(ctx, plan, costs, testModel(), 1, 50_000_000, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled replication took %v", d)
	}
}

// TestReplicateTimeoutMidFlight cancels while replication is running and
// requires both the context error and a prompt return — the in-chunk
// ctx poll (every 1024 patterns) is what bounds the latency.
func TestReplicateTimeoutMidFlight(t *testing.T) {
	plan := Plan{W: 500, Sigma1: 1, Sigma2: 0.8}
	costs := Costs{C: 10, V: 2, R: 5, LambdaS: 1e-3}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	// A replication count that would take far longer than the timeout.
	_, err := ReplicatePatternParallelCtx(ctx, plan, costs, testModel(), 1, 20_000_000, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timed-out replication took %v to return", d)
	}
}

// TestScenarioCancel covers the scenario replication path.
func TestScenarioCancel(t *testing.T) {
	sc := testScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplicateScenarioCtx(ctx, sc, 1, 10_000, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
