// Spec campaigns: declarative scenario documents replicated per config
// through the journaled shard machinery, bit-identical to the direct
// engine fan-out.
package jobs

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"respeed/internal/engine"
	"respeed/internal/platform"
	"respeed/internal/spec"
)

// TestSpecCampaignMatchesReplicateScenario proves a spec campaign's
// merged per-config estimate is bit-identical to
// engine.ReplicateScenario run in one piece with the campaign seed —
// the shard layer adds no statistical drift to the DSL path either.
func TestSpecCampaignMatchesReplicateScenario(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir()})
	defer m.Close()

	sp, ok := spec.ByName("cluster-twolevel")
	if !ok {
		t.Fatal("builtin cluster-twolevel missing")
	}
	camp := Campaign{Kind: KindSpec, Configs: []string{"Hera/XScale", "Atlas/Crusoe"}, Spec: &sp, N: 40, Seed: 11}
	st, err := m.Submit(camp)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("want one cell per config, got %d", len(res.Cells))
	}
	for _, cell := range res.Cells {
		if cell.Estimate == nil || cell.Infeasible {
			t.Fatalf("spec cell incomplete: %+v", cell)
		}
		cfg, _ := platform.ByName(cell.Config)
		sc, err := sp.Compile(spec.EnvFor(cfg))
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.ReplicateScenario(sc, camp.Seed, camp.N, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(cell.Estimate)
		direct, _ := json.Marshal(want)
		if string(got) != string(direct) {
			t.Errorf("%s: campaign estimate differs from direct fan-out:\n got %s\nwant %s",
				cell.Config, got, direct)
		}
	}
}

// TestSpecCampaignWeibullEndToEnd runs a non-legacy fault family (the
// acceptance's Weibull arrivals) through the full campaign machinery.
func TestSpecCampaignWeibullEndToEnd(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir()})
	defer m.Close()

	sp, err := spec.Parse([]byte(`{
	  "version": 1,
	  "name": "weibull-campaign",
	  "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8},
	  "total_work": 500,
	  "faults": {
	    "silent": {"dist": "exponential", "rate": 2e-3},
	    "failstop": {"dist": "weibull", "shape": 0.7, "scale": 1500}
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(Campaign{Kind: KindSpec, Configs: []string{"Hera/XScale"}, Spec: &sp, N: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	est := res.Cells[0].Estimate
	if est == nil || est.Time.Mean <= 0 || est.MeanAttempts < 1 {
		t.Fatalf("weibull campaign estimate: %+v", est)
	}
}

// TestSpecCampaignValidation pins the normalize contract for the new
// kind: spec required, rhos rejected, spec rejected on other kinds, and
// non-compiling specs refused at submit.
func TestSpecCampaignValidation(t *testing.T) {
	m := mustOpen(t, Options{Dir: t.TempDir()})
	defer m.Close()
	sp, _ := spec.ByName("partial-failstop")

	cases := []struct {
		name string
		c    Campaign
		want string
	}{
		{"missing spec", Campaign{Kind: KindSpec}, "needs a spec"},
		{"rhos rejected", Campaign{Kind: KindSpec, Spec: &sp, Rhos: []float64{3}}, "rhos do not apply"},
		{"spec on sweep", Campaign{Kind: KindSweep, Spec: &sp, Rhos: []float64{3}}, "spec applies to spec campaigns"},
		{"n too small", Campaign{Kind: KindSpec, Spec: &sp, N: 1}, "must be in [2"},
	}
	for _, tc := range cases {
		if _, err := m.Submit(tc.c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.want)
		}
	}

	// An invalid spec document is refused before any shard runs.
	bad := sp
	bad.Plan.W = -1
	if _, err := m.Submit(Campaign{Kind: KindSpec, Spec: &bad}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestResumeRevalidatesJournaledSpec: a journal whose submit record
// carries a spec past a size bound (written directly, as a journal from
// an older build could be) resumes into a failed job with the bound's
// error. runShard's Compile re-validates before anything is built, so
// the heat2d state of 10^6 × 10^6 cells is never allocated.
func TestResumeRevalidatesJournaledSpec(t *testing.T) {
	sp, ok := spec.ByName("cluster-twolevel")
	if !ok {
		t.Fatal("builtin cluster-twolevel missing")
	}
	sp.Workload = &spec.WorkloadSpec{Kind: "heat2d", Size: 1000000, Alpha: 0.2}
	camp := Campaign{Kind: KindSpec, Configs: []string{"Hera/XScale"}, Spec: &sp, N: 2, Seed: 1}
	dir := t.TempDir()
	jn, err := createJournal(filepath.Join(dir, "j000001.journal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.append(record{T: recordSubmit, ID: "j000001", Campaign: &camp, Shards: len(camp.planShards())}); err != nil {
		t.Fatal(err)
	}
	jn.close()

	m := mustOpen(t, Options{Dir: dir, ShardRetries: 1, RetryBackoff: time.Millisecond})
	defer m.Close()
	st := waitDone(t, m, "j000001")
	if st.State != StateFailed || !strings.Contains(st.Error, "workload.size") {
		t.Fatalf("resumed job ended %s (%q), want failed naming workload.size", st.State, st.Error)
	}
}
