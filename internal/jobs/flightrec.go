package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
)

// ShardTrace is one line of a job's flight recorder: the timeline of a
// single shard's (final) attempt, with enough attribution to answer
// "why was this campaign slow" from one endpoint — where the shard
// waited, where it ran, how often it was retried and why.
type ShardTrace struct {
	Shard   int     `json:"shard"`
	Config  string  `json:"config"`
	Rho     float64 `json:"rho"`
	Attempt int     `json:"attempt"` // attempt number that settled the shard
	// Peer is the executing daemon ("local" for in-process execution,
	// a peer URL for fleet dispatch).
	Peer string `json:"peer"`
	// QueueSeconds is how long the shard waited for a worker slot and
	// the compute gate before its first attempt could start.
	QueueSeconds float64 `json:"queue_seconds"`
	// DispatchSeconds is the settling attempt's wall-clock as seen by
	// the coordinator — for remote shards this includes the network
	// round-trip, so DispatchSeconds-ExecSeconds isolates transfer cost.
	DispatchSeconds float64 `json:"dispatch_seconds"`
	// ExecSeconds is the peer-reported pure execution time (equals
	// DispatchSeconds for local shards).
	ExecSeconds float64 `json:"exec_seconds"`
	// RetryCause is the error that forced the most recent re-dispatch,
	// empty when the first attempt settled the shard.
	RetryCause  string `json:"retry_cause,omitempty"`
	ResultBytes int    `json:"result_bytes"`
	// OK is false only when the shard exhausted its attempts (the entry
	// then records the failure for forensics).
	OK bool `json:"ok"`
}

// traceRingCap bounds the in-memory flight-recorder ring per job. The
// JSONL sidecar keeps full history; the ring keeps the hot tail.
const traceRingCap = 4096

// flightRecorder is a job's per-shard timeline: a bounded in-memory
// ring mirrored best-effort into a JSONL sidecar next to the CRC-framed
// journal. The sidecar is telemetry, not state — it is never fsynced,
// a torn tail line is skipped on reload, and losing it cannot affect
// the campaign result (which lives in the journal/snapshot alone).
type flightRecorder struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	entries []ShardTrace
	dropped int
}

func newFlightRecorder(path string) *flightRecorder {
	return &flightRecorder{path: path}
}

// loadFlightRecorder rebuilds a recorder ring from its JSONL sidecar.
// Malformed lines (a torn tail from a crash) are skipped, not fatal.
func loadFlightRecorder(path string) *flightRecorder {
	r := newFlightRecorder(path)
	f, err := os.Open(path)
	if err != nil {
		return r
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e ShardTrace
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		r.appendLocked(e)
	}
	return r
}

// appendLocked pushes one entry into the bounded ring (r.mu NOT held —
// load-time only, before the recorder is shared).
func (r *flightRecorder) appendLocked(e ShardTrace) {
	if len(r.entries) >= traceRingCap {
		r.entries = r.entries[1:]
		r.dropped++
	}
	r.entries = append(r.entries, e)
}

// record appends an entry to the ring and the sidecar.
func (r *flightRecorder) record(e ShardTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendLocked(e)
	if r.f == nil {
		f, err := os.OpenFile(r.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return // best-effort: the ring still has the entry
		}
		r.f = f
	}
	if b, err := json.Marshal(e); err == nil {
		r.f.Write(append(b, '\n'))
	}
}

// snapshot copies the ring (oldest first) and the drop count.
func (r *flightRecorder) snapshot() ([]ShardTrace, int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ShardTrace(nil), r.entries...), r.dropped
}

// closeFile releases the sidecar handle (the ring stays readable).
func (r *flightRecorder) closeFile() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// JobTrace is the GET /v1/jobs/{id}/trace payload: the job's flight
// recorder plus enough status to interpret it.
type JobTrace struct {
	JobID       string `json:"job"`
	State       State  `json:"state"`
	ShardsTotal int    `json:"shards_total"`
	ShardsDone  int    `json:"shards_done"`
	// Dropped counts timeline entries evicted from the bounded ring
	// (only campaigns beyond traceRingCap shards ever drop).
	Dropped int          `json:"dropped,omitempty"`
	Shards  []ShardTrace `json:"shards"`
}

// Trace returns a job's flight-recorder timeline.
func (m *Manager) Trace(id string) (JobTrace, error) {
	j, err := m.get(id)
	if err != nil {
		return JobTrace{}, err
	}
	entries, dropped := j.rec.snapshot()
	j.mu.Lock()
	jt := JobTrace{
		JobID: j.id, State: j.state,
		ShardsTotal: len(j.shards), ShardsDone: len(j.done),
		Dropped: dropped, Shards: entries,
	}
	j.mu.Unlock()
	return jt, nil
}

// shardAttr is the per-attempt attribution slot a ShardRunner reports
// into: the manager threads a pointer through the attempt's context and
// the fleet coordinator fills in where the shard actually ran.
type shardAttr struct {
	mu   sync.Mutex
	peer string
	exec float64
}

func (a *shardAttr) get() (string, float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peer, a.exec
}

type attrCtxKey struct{}

func withShardAttr(ctx context.Context, a *shardAttr) context.Context {
	return context.WithValue(ctx, attrCtxKey{}, a)
}

// AttributeShard reports where a shard attempt executed and its
// peer-measured execution time. A ShardRunner (the fleet coordinator)
// calls it with the chosen peer URL — or "local" for fallback — so the
// flight recorder and the respeed_fleet_shard_seconds histograms carry
// per-peer attribution. A no-op outside a manager shard attempt.
func AttributeShard(ctx context.Context, peer string, execSeconds float64) {
	a, _ := ctx.Value(attrCtxKey{}).(*shardAttr)
	if a == nil {
		return
	}
	a.mu.Lock()
	a.peer = peer
	a.exec = execSeconds
	a.mu.Unlock()
}
