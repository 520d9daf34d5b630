package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"respeed/internal/engine"
	"respeed/internal/obs"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final: done, failed or cancelled.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors of the manager API.
var (
	// ErrUnknownJob reports a job id the manager does not hold.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrNotDone reports a result request for an unfinished job.
	ErrNotDone = errors.New("jobs: job has no result yet")
	// ErrManagerFull reports that the retention cap is reached and every
	// retained job is still active.
	ErrManagerFull = errors.New("jobs: manager full (all retained jobs active)")
	// ErrClosed reports a submit to a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
)

// Options configures a Manager. The zero value (plus a Dir) selects
// sensible defaults.
type Options struct {
	// Dir is the journal/snapshot directory (required; created if
	// absent).
	Dir string
	// Workers bounds concurrently executing shards across all jobs
	// (default GOMAXPROCS).
	Workers int
	// MaxJobs caps retained jobs; submits beyond it evict the oldest
	// finished job, or fail with ErrManagerFull when all are active
	// (default 64).
	MaxJobs int
	// ShardRetries is the attempt count per shard before the job fails
	// (default 3).
	ShardRetries int
	// RetryBackoff is the first retry delay; it doubles per attempt
	// (default 50ms).
	RetryBackoff time.Duration
	// Logger receives structured job lifecycle logs (nil discards them).
	Logger *slog.Logger
	// Tracer, when non-nil, records a span per job run with one child
	// span per executed shard.
	Tracer *obs.Tracer
	// Registry, when non-nil, exports the manager's gauges and counters
	// (job states, shards, retries, journal I/O, shard latency).
	Registry *obs.Registry
	// BeforeShard, when non-nil, runs before every shard attempt and may
	// inject an error to force the retry path (fault-injection hook,
	// also used by tests).
	BeforeShard func(jobID string, shard, attempt int) error
	// ShardRunner, when non-nil, replaces local shard execution: each
	// attempt calls it with the normalized campaign and the shard's plan
	// and journals the raw bytes it returns verbatim. The fleet
	// coordinator uses this hook to dispatch shards to peer daemons;
	// because the journal path is unchanged, crash-resume and the result
	// hash are byte-identical to local execution. Errors flow through
	// the normal retry+backoff path; an error implementing RetryHint
	// stretches the next backoff to the hinted delay.
	ShardRunner func(ctx context.Context, c Campaign, sp ShardPlan, shard, attempt int) (json.RawMessage, error)
	// Gate, when non-nil, bounds shard execution against an external
	// compute lane (the serving layer's heavy lane), so background
	// campaign shards and interactive simulations respect one bound.
	// Wait blocks until a slot is free or ctx is done; the returned
	// release must be called once. admit.Lane satisfies it, and
	// background waits are exempt from the lane's foreground queue
	// bound — shards have no deadline to protect and must not be shed.
	Gate Gate
}

// Gate is an external concurrency bound for shard execution.
type Gate interface {
	Wait(ctx context.Context) (func(), error)
}

// RetryHint is implemented by shard errors that carry an explicit
// retry-after delay (a busy worker's 429 Retry-After header, surfaced
// by the fleet coordinator). The manager stretches the next backoff to
// at least the hinted delay, clamped to a minimum of one second so a
// sub-second hint cannot turn the backoff into a hot loop.
type RetryHint interface {
	RetryAfter() time.Duration
}

// minRetryHint floors Retry-After hints: anything shorter is rounded
// up to one second.
const minRetryHint = time.Second

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 64
	}
	if o.ShardRetries <= 0 {
		o.ShardRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// Event is one progress notification. Every event carries the full
// cumulative progress snapshot, so dropped events (slow subscribers)
// lose granularity, never state.
type Event struct {
	JobID       string `json:"job"`
	State       State  `json:"state"`
	ShardsDone  int    `json:"shards_done"`
	ShardsTotal int    `json:"shards_total"`
	// Shard is the just-completed shard index, or -1 for pure
	// state-transition events.
	Shard int    `json:"shard"`
	Error string `json:"error,omitempty"`
}

// Status is a point-in-time view of one job.
type Status struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Kind        Kind   `json:"kind"`
	State       State  `json:"state"`
	ShardsTotal int    `json:"shards_total"`
	ShardsDone  int    `json:"shards_done"`
	Error       string `json:"error,omitempty"`
	// Hash is the result content hash, set once the job is done.
	Hash string `json:"hash,omitempty"`
}

// Stats are the manager-wide gauges exported on /metrics.
type Stats struct {
	Queued         int   `json:"queued"`
	Running        int   `json:"running"`
	Done           int   `json:"done"`
	Failed         int   `json:"failed"`
	Cancelled      int   `json:"cancelled"`
	ShardsExecuted int64 `json:"shards_executed"`
	// ShardRetries counts shard attempts beyond the first; JournalBytes
	// and JournalFsyncs total the journal write traffic.
	ShardRetries  int64 `json:"shard_retries"`
	JournalBytes  int64 `json:"journal_bytes"`
	JournalFsyncs int64 `json:"journal_fsyncs"`
}

// job is the manager's per-campaign state.
type job struct {
	id       string
	campaign Campaign
	shards   []ShardPlan

	rec *flightRecorder

	mu         sync.Mutex
	state      State
	done       map[int]json.RawMessage
	errMsg     string
	result     *Result
	journal    *journal
	cancelled  bool               // explicit Cancel (vs. manager shutdown)
	cancel     context.CancelFunc // aborts the job's in-flight shards mid-chunk
	subs       map[int]chan Event
	subSeq     int
	finishedCh chan struct{} // closed on terminal state
}

// Manager runs campaigns: it shards, executes, journals and resumes
// them. Open it over a directory; reopening the same directory resumes
// unfinished jobs from their journals.
type Manager struct {
	opts Options

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order (resume order for recovered jobs)
	seq    int
	closed bool

	sem        chan struct{}
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc

	shardsExecuted atomic.Int64
	shardRetries   atomic.Int64
	journalIO      journalStats
	shardHist      *obs.Histogram    // shard wall-clock seconds
	fleetPhases    *obs.HistogramVec // respeed_fleet_shard_seconds{peer,phase}
	log            *slog.Logger

	// testShardDelay, when non-nil, runs before every shard execution
	// (lets tests hold shards in flight).
	testShardDelay func()
	// testBeforeCancelRecord, when non-nil, runs just before Cancel
	// appends the cancel record (lets tests widen the window in which
	// the job could finish and close its journal).
	testBeforeCancelRecord func()
}

// Open creates (or reopens) a manager over dir: completed snapshots are
// loaded, unfinished journals are replayed and their jobs resumed —
// re-executing only the shards without a durable journal record. A
// corrupt journal fails that job (with the *CorruptError preserved in
// its status) without affecting others.
func Open(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("jobs: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		jobs:       make(map[string]*job),
		sem:        make(chan struct{}, opts.Workers),
		baseCtx:    ctx,
		baseCancel: cancel,
		shardHist:  obs.NewHistogram(obs.DurationBuckets()),
		log:        opts.Logger,
	}
	m.registerMetrics(opts.Registry)
	if err := m.load(); err != nil {
		cancel()
		return nil, err
	}
	return m, nil
}

// registerMetrics exports the manager's state on a metrics registry.
// Gauges and counters read the manager's own atomics at scrape time, so
// the hot path pays nothing beyond what it already maintains.
func (m *Manager) registerMetrics(r *obs.Registry) {
	// The per-peer phase histograms feed the flight recorder's summary
	// view: queue wait, dispatch round-trip and peer-reported execution,
	// labeled by the daemon that ran the shard. Registered first because
	// the nil-registry path still needs the (no-op) vec.
	m.fleetPhases = r.NewHistogramVec(obs.Opts{
		Name:   "respeed_fleet_shard_seconds",
		Help:   "Campaign shard phase durations by executing peer (phase: queue|dispatch|exec).",
		Labels: []string{"peer", "phase"},
	}, obs.DurationBuckets())
	if r == nil {
		return
	}
	states := r.NewGaugeVec(obs.Opts{
		Name:   "respeed_jobs_current",
		Help:   "Retained campaign jobs by lifecycle state.",
		Labels: []string{"state"},
	})
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		st := st
		states.WithFunc(func() float64 { return float64(m.countState(st)) }, string(st))
	}
	r.NewCounterFunc("respeed_jobs_shards_executed_total",
		"Campaign shards executed to durable completion.",
		func() float64 { return float64(m.shardsExecuted.Load()) })
	r.NewCounterFunc("respeed_jobs_shard_retries_total",
		"Campaign shard attempts beyond the first.",
		func() float64 { return float64(m.shardRetries.Load()) })
	r.NewCounterFunc("respeed_jobs_journal_bytes_total",
		"Bytes appended to campaign journals.",
		func() float64 { return float64(m.journalIO.bytes.Load()) })
	r.NewCounterFunc("respeed_jobs_journal_fsyncs_total",
		"Fsyncs issued by campaign journal appends.",
		func() float64 { return float64(m.journalIO.fsyncs.Load()) })
	r.RegisterHistogram(obs.Opts{
		Name: "respeed_jobs_shard_duration_seconds",
		Help: "Wall-clock duration of successful shard executions.",
	}, m.shardHist)
}

// countState counts retained jobs in one state.
func (m *Manager) countState(st State) int {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	n := 0
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == st {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// jobID formats the n-th job id; ids sort lexically in submission order.
func jobID(n int) string { return fmt.Sprintf("j%06d", n) }

// parseJobID extracts the sequence number from an id (for seq recovery).
func parseJobID(id string) (int, bool) {
	if len(id) != 7 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// load scans the directory: snapshots are finished jobs, journals are
// unfinished ones to resume.
func (m *Manager) load() error {
	entries, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		return fmt.Errorf("jobs: scan dir: %w", err)
	}
	var resumed []*job
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".json"):
			id := strings.TrimSuffix(name, ".json")
			if _, ok := parseJobID(id); !ok {
				continue // foreign file
			}
			res, err := readSnapshot(filepath.Join(m.opts.Dir, name))
			if err != nil {
				return err
			}
			j := &job{
				id: id, campaign: res.Campaign, shards: res.Campaign.planShards(),
				state: StateDone, result: &res, finishedCh: make(chan struct{}),
				rec: loadFlightRecorder(filepath.Join(m.opts.Dir, id+".trace")),
			}
			close(j.finishedCh)
			m.jobs[id] = j
		case strings.HasSuffix(name, ".journal"):
			id := strings.TrimSuffix(name, ".journal")
			if _, ok := parseJobID(id); !ok {
				continue
			}
			path := filepath.Join(m.opts.Dir, name)
			if _, err := os.Stat(filepath.Join(m.opts.Dir, id+".json")); err == nil {
				// Snapshot exists: the journal is a retired leftover from
				// a crash between rename and remove.
				os.Remove(path)
				continue
			}
			rep, err := ReplayJournal(path)
			var cerr *CorruptError
			switch {
			case errors.As(err, &cerr):
				// Committed history was damaged: surface a failed job
				// carrying the typed error; keep the file for forensics.
				j := &job{
					id: id, state: StateFailed, errMsg: cerr.Error(),
					finishedCh: make(chan struct{}),
				}
				close(j.finishedCh)
				m.jobs[id] = j
				continue
			case err != nil:
				return err
			case rep == nil:
				// No durable submit: the job never observably existed.
				os.Remove(path)
				continue
			}
			j := &job{
				id: id, campaign: rep.Campaign, shards: rep.Campaign.planShards(),
				done: rep.Done, finishedCh: make(chan struct{}),
				rec: loadFlightRecorder(filepath.Join(m.opts.Dir, id+".trace")),
			}
			if rep.Cancelled {
				j.state = StateCancelled
				close(j.finishedCh)
				m.jobs[id] = j
				continue
			}
			jn, err := openJournal(path, &m.journalIO)
			if err != nil {
				return err
			}
			j.journal = jn
			j.state = StateQueued
			m.jobs[id] = j
			resumed = append(resumed, j)
		}
	}
	for id := range m.jobs {
		if n, ok := parseJobID(id); ok && n > m.seq {
			m.seq = n
		}
	}
	m.order = make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		m.order = append(m.order, id)
	}
	sort.Strings(m.order)
	sort.Slice(resumed, func(a, b int) bool { return resumed[a].id < resumed[b].id })
	for _, j := range resumed {
		j.mu.Lock()
		doneShards, total := len(j.done), len(j.shards)
		j.mu.Unlock()
		m.log.Info("resuming job from journal", "job", j.id,
			"shards_done", doneShards, "shards_total", total)
		m.startJob(j)
	}
	if len(m.jobs) > 0 {
		m.log.Info("job directory loaded", "jobs", len(m.jobs), "resumed", len(resumed))
	}
	return nil
}

// Submit validates, journals and enqueues a campaign, returning its
// status once the submit record is durable: from this point a crash
// cannot lose the job.
func (m *Manager) Submit(c Campaign) (Status, error) {
	norm, err := c.normalize()
	if err != nil {
		return Status{}, err
	}
	shards := norm.planShards()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	if err := m.evictLocked(); err != nil {
		m.mu.Unlock()
		return Status{}, err
	}
	m.seq++
	id := jobID(m.seq)
	jn, err := createJournal(filepath.Join(m.opts.Dir, id+".journal"), &m.journalIO)
	if err != nil {
		m.seq--
		m.mu.Unlock()
		return Status{}, err
	}
	j := &job{
		id: id, campaign: norm, shards: shards, state: StateQueued,
		done: make(map[int]json.RawMessage), journal: jn,
		finishedCh: make(chan struct{}),
		rec:        newFlightRecorder(filepath.Join(m.opts.Dir, id+".trace")),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()

	if err := jn.append(record{T: recordSubmit, ID: id, Campaign: &norm, Shards: len(shards)}); err != nil {
		jn.close()
		m.mu.Lock()
		delete(m.jobs, id)
		for i, oid := range m.order {
			if oid == id {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		os.Remove(filepath.Join(m.opts.Dir, id+".journal"))
		return Status{}, err
	}
	m.log.Info("job submitted", "job", id, "kind", norm.Kind,
		"name", norm.Name, "shards", len(shards))
	m.startJob(j)
	return m.statusOf(j), nil
}

// evictLocked enforces MaxJobs by evicting the oldest finished job
// (including its files); all-active means the manager is full.
func (m *Manager) evictLocked() error {
	if len(m.jobs) < m.opts.MaxJobs {
		return nil
	}
	for i, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		t := j.state.Terminal()
		j.mu.Unlock()
		if !t {
			continue
		}
		delete(m.jobs, id)
		m.order = append(m.order[:i], m.order[i+1:]...)
		os.Remove(filepath.Join(m.opts.Dir, id+".json"))
		os.Remove(filepath.Join(m.opts.Dir, id+".journal"))
		os.Remove(filepath.Join(m.opts.Dir, id+".trace"))
		return nil
	}
	return ErrManagerFull
}

// startJob launches the job's runner goroutine.
func (m *Manager) startJob(j *job) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.runJob(j)
	}()
}

// runJob drives one job: fan pending shards out over the shared
// replication executor, journal each completion, then assemble,
// snapshot and retire the journal. On shutdown (manager Close) it stops
// without a terminal state so the journal resumes the job later; on
// explicit Cancel the per-job context aborts in-flight shards mid-chunk
// and a cancel record is committed.
func (m *Manager) runJob(j *job) {
	ctx := obs.WithTracer(m.baseCtx, m.opts.Tracer)
	// The job id doubles as the trace's request ID: every dispatch this
	// job makes — including cross-daemon shard posts, which forward it
	// as X-Request-ID — is grep-able fleet-wide by the one id the
	// operator already holds.
	ctx = obs.WithRequestID(ctx, j.id)
	ctx, span := obs.StartSpan(ctx, "job")
	span.Annotate("job", j.id)
	span.Annotate("kind", string(j.campaign.Kind))
	defer span.End()
	jctx, jcancel := context.WithCancel(ctx)
	defer jcancel()
	j.mu.Lock()
	j.cancel = jcancel
	if j.state == StateQueued {
		j.state = StateRunning
	}
	pending := make([]int, 0, len(j.shards))
	for i := range j.shards {
		if _, ok := j.done[i]; !ok {
			pending = append(pending, i)
		}
	}
	j.mu.Unlock()
	m.publish(j, -1)

	// The manager-wide semaphore (bounding shards across ALL jobs) is
	// taken inside the chunk function, under the job context, so a
	// cancelled job never waits on a slot. A shard error aborts the
	// remaining dispatch (FanOut's fail-fast); context errors are not
	// failures — the terminal-state switch below distinguishes explicit
	// cancel from manager shutdown.
	ferr := engine.SharedExecutor().FanOut(jctx, len(pending), m.opts.Workers, func(i int) error {
		idx := pending[i]
		if j.terminalOrCancelled() {
			return nil
		}
		enqueued := time.Now()
		select {
		case <-jctx.Done():
			return jctx.Err()
		case m.sem <- struct{}{}:
		}
		defer func() { <-m.sem }()
		if m.opts.Gate != nil {
			// The shared heavy lane: shards yield to interactive
			// simulation capacity, waiting (never shedding) for a slot.
			release, err := m.opts.Gate.Wait(jctx)
			if err != nil {
				return err
			}
			defer release()
		}
		return m.runShard(jctx, j, idx, time.Since(enqueued).Seconds())
	})
	if ferr != nil && !errors.Is(ferr, context.Canceled) && !errors.Is(ferr, context.DeadlineExceeded) {
		j.fail(ferr)
	}

	j.mu.Lock()
	switch {
	case j.state == StateFailed:
		errMsg := j.errMsg
		j.finishLocked()
		j.mu.Unlock()
		m.log.Warn("job failed", "job", j.id, "error", errMsg)
		m.publish(j, -1)
		return
	case j.cancelled:
		j.state = StateCancelled
		j.finishLocked()
		j.mu.Unlock()
		m.log.Info("job cancelled", "job", j.id)
		m.publish(j, -1)
		return
	case ctx.Err() != nil:
		// Manager shutdown: no terminal state, no journal retirement —
		// the job stays resumable. Subscribers are released so SSE
		// streams drain.
		j.closeSubsLocked()
		j.mu.Unlock()
		return
	}
	// All shards durable: assemble from the journal bytes.
	done := make(map[int]json.RawMessage, len(j.done))
	for k, v := range j.done {
		done[k] = v
	}
	j.mu.Unlock()

	res, err := j.campaign.assemble(j.id, j.shards, done)
	if err == nil {
		err = writeSnapshot(filepath.Join(m.opts.Dir, j.id+".json"), res)
	}
	j.mu.Lock()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		j.finishLocked()
		j.mu.Unlock()
		m.log.Warn("job failed to assemble", "job", j.id, "error", err)
		m.publish(j, -1)
		return
	}
	j.result = &res
	j.state = StateDone
	j.finishLocked()
	j.mu.Unlock()
	os.Remove(filepath.Join(m.opts.Dir, j.id+".journal"))
	m.log.Info("job done", "job", j.id, "shards", len(j.shards), "hash", res.Hash)
	m.publish(j, -1)
}

// runShard executes one shard with retry+backoff and journals the
// result. A nil return means the shard is durably recorded (or the job
// is cancelled/shutting down); an error means the shard exhausted its
// attempts. queueSeconds is how long the shard waited for its worker
// slot and gate; it lands in the flight recorder and the queue-phase
// histogram.
func (m *Manager) runShard(ctx context.Context, j *job, idx int, queueSeconds float64) error {
	ctx, span := obs.StartSpan(ctx, "shard")
	span.Annotate("job", j.id)
	span.Annotate("shard", strconv.Itoa(idx))
	defer span.End()
	var lastErr error
	var retryCause string
	for attempt := 1; attempt <= m.opts.ShardRetries; attempt++ {
		if ctx.Err() != nil || j.terminalOrCancelled() {
			return nil
		}
		if attempt > 1 {
			m.shardRetries.Add(1)
			retryCause = lastErr.Error()
			m.log.Warn("retrying shard", "job", j.id, "shard", idx,
				"attempt", attempt, "error", lastErr)
			backoff := m.opts.RetryBackoff << (attempt - 2)
			var hint RetryHint
			if errors.As(lastErr, &hint) {
				if h := max(hint.RetryAfter(), minRetryHint); h > backoff {
					backoff = h
				}
			}
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil
			case <-t.C:
			}
		}
		attr := &shardAttr{}
		start := time.Now()
		lastErr = m.tryShard(withShardAttr(ctx, attr), j, idx, attempt)
		dispatch := time.Since(start).Seconds()
		if lastErr == nil {
			m.shardHist.Observe(dispatch)
			m.shardsExecuted.Add(1)
			m.recordShard(j, idx, attempt, attr, queueSeconds, dispatch, retryCause, true)
			m.publish(j, idx)
			return nil
		}
	}
	attr := &shardAttr{}
	m.recordShard(j, idx, m.opts.ShardRetries, attr, queueSeconds, 0, lastErr.Error(), false)
	return fmt.Errorf("shard %d (%s ρ=%g): %w after %d attempts",
		idx, j.shards[idx].Config, j.shards[idx].Rho, lastErr, m.opts.ShardRetries)
}

// recordShard writes one flight-recorder entry and feeds the per-peer
// phase histograms.
func (m *Manager) recordShard(j *job, idx, attempt int, attr *shardAttr,
	queueSeconds, dispatchSeconds float64, retryCause string, ok bool) {
	peer, exec := attr.get()
	if peer == "" {
		peer = "local"
	}
	if exec == 0 {
		// Local execution has no separate peer-measured clock: the
		// dispatch wall-clock IS the execution time.
		exec = dispatchSeconds
	}
	resultBytes := 0
	if ok {
		j.mu.Lock()
		resultBytes = len(j.done[idx])
		j.mu.Unlock()
	}
	j.rec.record(ShardTrace{
		Shard: idx, Config: j.shards[idx].Config, Rho: j.shards[idx].Rho,
		Attempt: attempt, Peer: peer,
		QueueSeconds: queueSeconds, DispatchSeconds: dispatchSeconds,
		ExecSeconds: exec, RetryCause: retryCause,
		ResultBytes: resultBytes, OK: ok,
	})
	if ok {
		m.fleetPhases.With(peer, "queue").Observe(queueSeconds)
		m.fleetPhases.With(peer, "dispatch").Observe(dispatchSeconds)
		m.fleetPhases.With(peer, "exec").Observe(exec)
	}
}

// tryShard is one attempt: compute, encode, journal.
func (m *Manager) tryShard(ctx context.Context, j *job, idx, attempt int) error {
	if m.testShardDelay != nil {
		m.testShardDelay()
	}
	if m.opts.BeforeShard != nil {
		if err := m.opts.BeforeShard(j.id, idx, attempt); err != nil {
			return err
		}
	}
	var raw json.RawMessage
	if m.opts.ShardRunner != nil {
		var err error
		raw, err = m.opts.ShardRunner(ctx, j.campaign, j.shards[idx], idx, attempt)
		if err != nil {
			return err
		}
	} else {
		sr, err := j.campaign.runShard(ctx, j.shards[idx])
		if err != nil {
			return err
		}
		raw, err = json.Marshal(sr)
		if err != nil {
			return err
		}
	}
	if err := j.journal.append(record{T: recordShard, Idx: idx, Result: raw}); err != nil {
		return err
	}
	j.mu.Lock()
	j.done[idx] = raw
	j.mu.Unlock()
	return nil
}

// fail records the first shard failure.
func (j *job) fail(err error) {
	j.mu.Lock()
	if j.state != StateFailed {
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.mu.Unlock()
}

// terminalOrCancelled reports whether the job should stop dispatching.
func (j *job) terminalOrCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled || j.state.Terminal()
}

// finishLocked closes the journal and releases subscribers; j.mu held.
func (j *job) finishLocked() {
	if j.journal != nil {
		j.journal.close()
	}
	j.rec.closeFile()
	select {
	case <-j.finishedCh:
	default:
		close(j.finishedCh)
	}
}

// closeSubsLocked detaches all subscribers (shutdown); j.mu held.
func (j *job) closeSubsLocked() {
	for k, ch := range j.subs {
		close(ch)
		delete(j.subs, k)
	}
}

// publish snapshots progress and fans it out to subscribers
// (non-blocking; every event is cumulative, so drops are harmless).
// Terminal events also detach and close the subscribers.
func (m *Manager) publish(j *job, shard int) {
	j.mu.Lock()
	ev := Event{
		JobID: j.id, State: j.state, ShardsDone: len(j.done),
		ShardsTotal: len(j.shards), Shard: shard, Error: j.errMsg,
	}
	terminal := j.state.Terminal()
	for k, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
		if terminal {
			close(ch)
			delete(j.subs, k)
		}
	}
	j.mu.Unlock()
}

// get looks a job up.
func (m *Manager) get(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return j, nil
}

// statusOf snapshots one job.
func (m *Manager) statusOf(j *job) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Name: j.campaign.Name, Kind: j.campaign.Kind,
		State: j.state, ShardsTotal: len(j.shards), ShardsDone: len(j.done),
		Error: j.errMsg,
	}
	if j.result != nil {
		st.Hash = j.result.Hash
	}
	return st
}

// Status returns a job's current status.
func (m *Manager) Status(id string) (Status, error) {
	j, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	return m.statusOf(j), nil
}

// List returns every retained job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if j, err := m.get(id); err == nil {
			out = append(out, m.statusOf(j))
		}
	}
	return out
}

// Result returns a finished job's result (ErrNotDone otherwise).
func (m *Manager) Result(id string) (Result, error) {
	j, err := m.get(id)
	if err != nil {
		return Result{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return Result{}, fmt.Errorf("%w (job %s is %s)", ErrNotDone, id, j.state)
	}
	return *j.result, nil
}

// Cancel requests cancellation: the cancel is journaled (so a restart
// does not resurrect the job), pending shards stop dispatching, and the
// job transitions to cancelled once in-flight shards drain. Cancelling
// a terminal job is a no-op.
func (m *Manager) Cancel(id string) (Status, error) {
	j, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	j.mu.Lock()
	if j.state.Terminal() || j.cancelled {
		j.mu.Unlock()
		return m.statusOf(j), nil
	}
	// Commit the record before the flag and the context flip: until
	// then shards keep running, and finishLocked — the only closer of
	// the journal — needs j.mu, so the journal is still open here.
	if m.testBeforeCancelRecord != nil {
		m.testBeforeCancelRecord()
	}
	if j.journal != nil {
		if err := j.journal.append(record{T: recordCancel}); err != nil {
			j.mu.Unlock()
			return Status{}, err
		}
	}
	j.cancelled = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		// Abort in-flight shards promptly: Monte-Carlo chunks poll this
		// context and stop mid-chunk instead of burning out their range.
		cancel()
	}
	return m.statusOf(j), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	j, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	select {
	case <-j.finishedCh:
		return m.statusOf(j), nil
	case <-ctx.Done():
		return m.statusOf(j), ctx.Err()
	}
}

// Subscribe attaches a progress listener: the returned channel first
// delivers the current state, then every subsequent event, and is
// closed at the job's terminal event (or on unsubscribe/shutdown).
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	j, err := m.get(id)
	if err != nil {
		return nil, nil, err
	}
	ch := make(chan Event, 256)
	j.mu.Lock()
	ch <- Event{
		JobID: j.id, State: j.state, ShardsDone: len(j.done),
		ShardsTotal: len(j.shards), Shard: -1, Error: j.errMsg,
	}
	if j.state.Terminal() {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}, nil
	}
	if j.subs == nil {
		j.subs = make(map[int]chan Event)
	}
	j.subSeq++
	key := j.subSeq
	j.subs[key] = ch
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		if c, ok := j.subs[key]; ok {
			close(c)
			delete(j.subs, key)
		}
		j.mu.Unlock()
	}
	return ch, cancel, nil
}

// Stats snapshots the per-state gauges and the shard counter.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	var s Stats
	s.ShardsExecuted = m.shardsExecuted.Load()
	s.ShardRetries = m.shardRetries.Load()
	s.JournalBytes = m.journalIO.bytes.Load()
	s.JournalFsyncs = m.journalIO.fsyncs.Load()
	for _, j := range jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCancelled:
			s.Cancelled++
		}
		j.mu.Unlock()
	}
	return s
}

// Kinds lists the valid campaign kinds.
func Kinds() []string { return sortedKinds() }

// Close stops the manager: running shards finish their current attempt,
// nothing new dispatches, journals close. Unfinished jobs stay on disk
// and resume when the directory is reopened. Close is idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.journal != nil {
			j.journal.close()
		}
		j.rec.closeFile()
		j.closeSubsLocked()
		j.mu.Unlock()
	}
	m.mu.Unlock()
}
