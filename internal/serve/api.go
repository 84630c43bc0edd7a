// Package serve implements sgxd, the experiment service, as a thin HTTP
// transport over three explicit layers:
//
//   - internal/serve/frontdoor — admission: validation, per-tenant rate
//     limits and in-flight quotas, single-flight coalescing on the job's
//     content address, and backpressure (429 + Retry-After when the
//     backlog saturates, 503 the instant drain begins).
//   - internal/serve/sched — the scheduler: bounded queue, durable
//     journal, retries, deadlines, quarantine. No net/http anywhere.
//   - internal/serve/resultier — the result tier: a bounded in-memory
//     LRU read-through/write-through over the content-addressed disk
//     store, so warm hits never touch disk.
//
// The serving invariant is byte-identity: a figure fetched through sgxd is
// the same bytes as the same figure printed by `sgxbench -experiment ...`,
// whether it was just computed, replayed from the LRU, or replayed from
// disk. Jobs are identified by bench.Job.Digest — canonical spec plus
// simulator version — so equivalent requests share one store entry and a
// simulator change can never serve stale tables.
//
// The wire vocabulary (SubmitRequest, JobStatus, ResultBundle, the job
// states and error sentinels) lives in sched, and API clients such as
// cmd/sgxctl import it from there. This package is the HTTP transport
// that wires the layers, and the cluster when configured, together.
package serve

import "sgxbounds/internal/bench"

// ExperimentInfo describes one runnable experiment for GET /api/v1/experiments.
type ExperimentInfo struct {
	Name         string `json:"name"`
	Desc         string `json:"desc"`
	UsesThreads  bool   `json:"uses_threads,omitempty"`
	UsesRequests bool   `json:"uses_requests,omitempty"`
	UsesGrid     bool   `json:"uses_grid,omitempty"`
	UsesEPC      bool   `json:"uses_epc,omitempty"`
	Custom       bool   `json:"custom,omitempty"`
}

// ListExperiments renders the bench registry (plus the "all" sweep) as API
// metadata — the daemon's experiment list is derived, never hand-written.
func ListExperiments() []ExperimentInfo {
	infos := make([]ExperimentInfo, 0, len(bench.Experiments)+1)
	for _, exp := range bench.Experiments {
		infos = append(infos, ExperimentInfo{
			Name:         exp.Name,
			Desc:         exp.Desc,
			UsesThreads:  exp.UsesThreads,
			UsesRequests: exp.UsesRequests,
			UsesGrid:     exp.UsesGrid,
			UsesEPC:      exp.UsesEPC,
			Custom:       exp.Custom,
		})
	}
	infos = append(infos, ExperimentInfo{
		Name: "all", Desc: "every non-custom experiment, in evaluation order",
		UsesThreads: true, UsesRequests: true, UsesEPC: true,
	})
	return infos
}
