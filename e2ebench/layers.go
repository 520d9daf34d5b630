package main

import (
	"fmt"
	"os"
)

// perLayer lists every per-layer metric and its unit. A traced run
// prints all of them; a metric whose layer the workload does not
// exercise (serve and core are measured on plan, spec and the engine
// fan-out on simulate, jobs and fleet on campaign) reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"serve.handler_us", "us"},
	{"serve.self_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.request_share", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"admit.shed_ratio", "ratio"},
	{"core.solve_us", "us"},
	{"core.memo_us", "us"},
	{"spec.prepare_us", "us"},
	{"engine.replicate_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.fanout_speedup", "ratio"},
	{"workload.advance_share", "ratio"},
	{"workload.serialize_share", "ratio"},
	{"workload.state_kb_per_run", "KiB"},
	{"detect.digest_share", "ratio"},
	{"detect.digest_kb_per_run", "KiB"},
	{"detect.digest_ns_per_kb", "ns/KiB"},
	{"detect.vc_share", "ratio"},
	{"engine.app_self_share", "ratio"},
	{"engine.attempts_per_run", "count/run"},
	{"engine.patterns_per_run", "count/run"},
	{"engine.recoveries_per_run", "count/run"},
	{"faults.silent_per_run", "count/run"},
	{"faults.failstop_per_run", "count/run"},
	{"engine.useful_attempt_ratio", "count/count"},
	{"jobs.validate_us_per_shard", "us"},
	{"jobs.exec_ms_per_shard", "ms"},
	{"jobs.fsyncs_per_campaign", "count"},
	{"jobs.journal_kb_per_campaign", "KiB"},
	{"jobs.orchestration_ms_per_campaign", "ms"},
	{"jobs.orchestration_share", "ratio"},
	{"jobs.retry_ratio", "ratio"},
	{"fleet.worker_ms_per_shard", "ms"},
	{"fleet.dispatch_ms_per_shard", "ms"},
	{"fleet.transport_ms_per_shard", "ms"},
	{"fleet.redispatch_ratio", "ratio"},
	{"fleet.result_kb_per_shard", "KiB"},
	{"trace.overhead_ratio", "ratio"},
	{"latency_p99_ms", "ms"},
}

// confirm reports whether the traced run found the workload's intended
// dominant layer.
func confirm(claim string, ok bool) {
	verdict := "confirmed"
	if !ok {
		verdict = "NOT confirmed"
	}
	fmt.Fprintf(os.Stderr, "dominant layer %s: %s\n", verdict, claim)
}

// emptyLayers returns every per-layer metric at 0, for a workload to
// fill in the ones it measures.
func emptyLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}
