package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// TestRunShardHonorsContext pins the mid-chunk cancellation contract at
// the shard level: a Monte-Carlo shard under a cancelled context
// returns the context's error promptly instead of simulating its whole
// [Lo, Hi) range.
func TestRunShardHonorsContext(t *testing.T) {
	camp, err := Campaign{Kind: KindMonteCarlo, Configs: []string{"Hera/XScale"},
		Rhos: []float64{3}, N: 10_000_000}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	shards := camp.planShards()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = camp.runShard(ctx, shards[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled shard took %v to return", d)
	}
	// Grid and sweep shards are pure solves (microseconds) — they ignore
	// the context and must still succeed, so resume semantics for them
	// never depend on cancellation timing.
	gridCamp, err := Campaign{Kind: KindGrid, Configs: []string{"Hera/XScale"}, Rhos: []float64{3}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gridCamp.runShard(ctx, gridCamp.planShards()[0]); err != nil {
		t.Fatalf("grid shard under cancelled ctx: %v", err)
	}
}

// TestCancelAbortsInFlightShards submits a Monte-Carlo campaign big
// enough to run for many seconds uncancelled, cancels it immediately,
// and requires the terminal state well before the uncancelled runtime —
// the per-job context must abort dispatched shards mid-chunk, not let
// them drain naturally.
func TestCancelAbortsInFlightShards(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir(), Workers: 2})
	defer m.Close()
	st, err := m.Submit(Campaign{Kind: KindMonteCarlo, Configs: []string{"Hera/XScale"},
		Rhos: []float64{3, 4, 5, 6}, N: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// Let dispatch actually start some shards.
	time.Sleep(10 * time.Millisecond)
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait after cancel: %v (state %s)", err, fin.State)
	}
	if fin.State != StateCancelled {
		t.Fatalf("state %s after cancel", fin.State)
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("cancel took %v to drain in-flight shards", d)
	}
}

// TestCancelRecordSurvivesFinishRace forces the interleaving in which a
// cancelled job's shards return at once and the job finishes — closing
// its journal — before Cancel journals the cancel record. The hook
// before the record waits for the job to finish whenever the shards
// have already been told to stop, so a Cancel that flips the flag or
// the context before committing the record loses the race every time.
// A successful Cancel must still be durable: the reopened manager has
// to see the job as cancelled, not resume it as queued.
func TestCancelRecordSurvivesFinishRace(t *testing.T) {
	dir := t.TempDir()
	started := make(chan context.Context, 1)
	m := mustOpen(t, Options{Dir: dir, Workers: 1,
		ShardRunner: func(ctx context.Context, c Campaign, sp ShardPlan, shard, attempt int) (json.RawMessage, error) {
			select {
			case started <- ctx:
			default:
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	st, err := m.Submit(Campaign{Kind: KindSweep, Configs: []string{"Hera/XScale"}, Rhos: []float64{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	shardCtx := <-started
	m.testBeforeCancelRecord = func() {
		if shardCtx.Err() == nil {
			return // shards still running: the job cannot finish yet
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := m.Wait(ctx, st.ID); err != nil {
			t.Errorf("job did not finish after its shards stopped: %v", err)
		}
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if fin := waitDone(t, m, st.ID); fin.State != StateCancelled {
		t.Fatalf("state %s after cancel", fin.State)
	}
	m.Close()

	m2 := mustOpen(t, Options{Dir: dir})
	defer m2.Close()
	st2, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateCancelled {
		t.Fatalf("cancelled job resurrected as %s", st2.State)
	}
}
