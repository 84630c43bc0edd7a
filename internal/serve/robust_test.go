package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
)

// newFaultyServer builds a server with an armed fault injector, fast
// retries, and (optionally) a journal, for the chaos tests.
func newFaultyServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	registerTestExperiments()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Parallel == 0 {
		cfg.Parallel = 4
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryCap == 0 {
		cfg.RetryCap = 5 * time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func directOutput(t *testing.T, exp string) string {
	t.Helper()
	var want bytes.Buffer
	if err := bench.RunJob(bench.NewEngine(4), bench.Job{Experiment: exp}, &want, nil); err != nil {
		t.Fatal(err)
	}
	return want.String()
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

func quarantineList(t *testing.T, ts *httptest.Server) []sched.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/quarantine")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []sched.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestRetryRecoversFromTransientFault: a poison cell that fires once fails
// the first attempt; the retry runs clean and the final bytes are
// byte-identical to the unfaulted sgxbench output.
func TestRetryRecoversFromTransientFault(t *testing.T) {
	inj := faultline.New(faultline.Spec{Seed: 7, Rules: []faultline.Rule{
		{Op: "engine.cell", Match: "table4:asan", Kind: faultline.KindPanic, Times: 1},
	}})
	_, ts := newFaultyServer(t, Config{Faults: inj, MaxAttempts: 3})

	st := submit(t, ts, sched.SubmitRequest{Experiment: "table4"})
	fin := waitTerminal(t, ts, st.ID, 60*time.Second)
	if fin.State != sched.StateDone {
		t.Fatalf("state = %s (%s), want done after retry", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one faulted, one clean)", fin.Attempts)
	}
	if got, want := fetchResult(t, ts, st.ID), directOutput(t, "table4"); got != want {
		t.Error("retried result differs from direct sgxbench output")
	}
	if m := metricsText(t, ts); !strings.Contains(m, "sgxd_jobs_retried_total 1") {
		t.Errorf("metrics missing retry count:\n%s", m)
	}
}

// TestQuarantineAndRequeue: a cell poisoned for exactly MaxAttempts fires
// exhausts the job into quarantine — visible via the API and /metrics with
// its fault context — and requeueing releases it as a fresh job that now
// runs clean to byte-identical output.
func TestQuarantineAndRequeue(t *testing.T) {
	// One poisoned cell, with exactly enough fire budget to exhaust both
	// attempts (a broader Match would burn the whole budget inside the
	// first attempt's cell fan-out).
	inj := faultline.New(faultline.Spec{Seed: 7, Rules: []faultline.Rule{
		{Op: "engine.cell", Match: "table4:asan", Kind: faultline.KindPanic, Times: 2},
	}})
	_, ts := newFaultyServer(t, Config{Faults: inj, MaxAttempts: 2})

	st := submit(t, ts, sched.SubmitRequest{Experiment: "table4"})
	fin := waitTerminal(t, ts, st.ID, 60*time.Second)
	if fin.State != sched.StateQuarantined {
		t.Fatalf("state = %s (%s), want quarantined", fin.State, fin.Error)
	}
	if fin.Attempts != 2 || !strings.Contains(fin.Error, "faultline") {
		t.Errorf("quarantine context = attempts %d, error %q", fin.Attempts, fin.Error)
	}

	if q := quarantineList(t, ts); len(q) != 1 || q[0].ID != st.ID {
		t.Fatalf("quarantine list = %+v, want [%s]", q, st.ID)
	}
	m := metricsText(t, ts)
	for _, want := range []string{"sgxd_quarantined_jobs 1", "sgxd_jobs_quarantined_total 1", "sgxd_faults_injected_total 2"} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Release: the rule's fire budget is exhausted, so the fresh job runs
	// clean.
	resp, err := http.Post(ts.URL+"/api/v1/quarantine/"+st.ID+"/requeue", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rel struct {
		Quarantined sched.JobStatus `json:"quarantined"`
		Requeued    sched.JobStatus `json:"requeued"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("requeue: %s", resp.Status)
	}
	if rel.Quarantined.RequeuedAs != rel.Requeued.ID {
		t.Errorf("requeued_as = %q, want %q", rel.Quarantined.RequeuedAs, rel.Requeued.ID)
	}
	fin2 := waitTerminal(t, ts, rel.Requeued.ID, 60*time.Second)
	if fin2.State != sched.StateDone {
		t.Fatalf("released job state = %s (%s)", fin2.State, fin2.Error)
	}
	if got, want := fetchResult(t, ts, fin2.ID), directOutput(t, "table4"); got != want {
		t.Error("released job's result differs from direct sgxbench output")
	}
	if q := quarantineList(t, ts); len(q) != 0 {
		t.Errorf("quarantine still lists released job: %+v", q)
	}
	if m := metricsText(t, ts); !strings.Contains(m, "sgxd_quarantined_jobs 0") {
		t.Error("quarantine gauge did not drop after release")
	}

	// A second release of the same job is refused.
	resp2, err := http.Post(ts.URL+"/api/v1/quarantine/"+st.ID+"/requeue", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("double requeue: %s, want 409", resp2.Status)
	}
}

// TestDeadlineQuarantinesWedgedJob: a job that cannot finish inside its
// deadline is aborted at the next hierarchy probe, retried, and finally
// quarantined with a deadline error — it never wedges the worker.
func TestDeadlineQuarantinesWedgedJob(t *testing.T) {
	_, ts := newFaultyServer(t, Config{MaxAttempts: 2})
	st := submit(t, ts, sched.SubmitRequest{Experiment: "sleepy", DeadlineMS: 150})
	fin := waitTerminal(t, ts, st.ID, 30*time.Second)
	if fin.State != sched.StateQuarantined {
		t.Fatalf("state = %s (%s), want quarantined", fin.State, fin.Error)
	}
	if fin.Attempts != 2 || !strings.Contains(fin.Error, "deadline") {
		t.Errorf("quarantine context = attempts %d, error %q", fin.Attempts, fin.Error)
	}
}

// TestUserCancelBeatsRetry: a client cancellation during a faulted run
// lands the job in canceled, not quarantined — the deadline/retry
// machinery must not reclassify an explicit abort.
func TestUserCancelBeatsRetry(t *testing.T) {
	_, ts := newFaultyServer(t, Config{MaxAttempts: 5})
	st := submit(t, ts, sched.SubmitRequest{Experiment: "sleepy"})
	waitState(t, ts, st.ID, 5*time.Second, func(s sched.JobState) bool { return s == sched.StateRunning })
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, st.ID, 10*time.Second)
	if fin.State != sched.StateCanceled {
		t.Fatalf("state = %s, want canceled", fin.State)
	}
}

// TestFaultedSweepConverges is the acceptance scenario: a run with >10%
// store I/O faults plus one poison cell completes — the poisoned job is
// quarantined and surfaced, every other result is byte-identical to the
// clean output, and /metrics accounts for the injected faults.
func TestFaultedSweepConverges(t *testing.T) {
	inj := faultline.New(faultline.Spec{Seed: 42, Rules: []faultline.Rule{
		{Op: "store.*", Kind: faultline.KindError, Rate: 0.15},
		{Op: "engine.cell", Match: "table4:baggy", Kind: faultline.KindPanic},
	}})
	_, ts := newFaultyServer(t, Config{Faults: inj, MaxAttempts: 2})

	poisoned := submit(t, ts, sched.SubmitRequest{Experiment: "table4"})
	clean := submit(t, ts, sched.SubmitRequest{Experiment: "fig2"})

	finP := waitTerminal(t, ts, poisoned.ID, 120*time.Second)
	if finP.State != sched.StateQuarantined {
		t.Fatalf("poisoned job = %s (%s), want quarantined", finP.State, finP.Error)
	}
	finC := waitTerminal(t, ts, clean.ID, 120*time.Second)
	if finC.State != sched.StateDone {
		t.Fatalf("clean job = %s (%s), want done despite store faults", finC.State, finC.Error)
	}
	if got, want := fetchResult(t, ts, clean.ID), directOutput(t, "fig2"); got != want {
		t.Error("faulted run corrupted an unpoisoned result")
	}
	// Resubmitting rolls the dice on faulted store reads again; whether it
	// comes back warm or recomputed, the bytes must not change.
	again := submit(t, ts, sched.SubmitRequest{Experiment: "fig2"})
	finA := waitTerminal(t, ts, again.ID, 120*time.Second)
	if finA.State != sched.StateDone {
		t.Fatalf("resubmission = %s (%s)", finA.State, finA.Error)
	}
	if got, want := fetchResult(t, ts, again.ID), directOutput(t, "fig2"); got != want {
		t.Error("resubmission under store faults served different bytes")
	}

	if q := quarantineList(t, ts); len(q) != 1 || q[0].ID != poisoned.ID {
		t.Errorf("quarantine list = %+v, want the poisoned job", q)
	}
	m := metricsText(t, ts)
	if !strings.Contains(m, "sgxd_quarantined_jobs 1") {
		t.Error("metrics missing quarantine gauge")
	}
	if strings.Contains(m, "sgxd_faults_injected_total 0") {
		t.Error("metrics report zero injected faults in a faulted run")
	}
}

// TestJournalReplayResumesJobs: a journal carrying a pending job and a
// quarantined verdict (as left by a crashed daemon) is replayed on boot —
// the pending job re-runs to byte-identical output under its original ID,
// the quarantined job stays parked, and fresh IDs continue past the
// replayed sequence.
func TestJournalReplayResumesJobs(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")

	// Write the crashed daemon's journal by hand, in the documented JSONL
	// record grammar (see internal/serve/sched/journal.go): j7 was accepted
	// and interrupted mid-attempt, j8 was quarantined.
	records := strings.Join([]string{
		`{"t":"submitted","id":"j000007","req":{"experiment":"table4"},"unix":50}`,
		`{"t":"started","id":"j000007"}`,
		`{"t":"submitted","id":"j000008","req":{"experiment":"fig2"},"unix":51}`,
		`{"t":"finished","id":"j000008","state":"quarantined","error":"poison cell","attempts":3}`,
	}, "\n") + "\n"
	if err := os.WriteFile(journal, []byte(records), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newFaultyServer(t, Config{Store: st, Journal: journal})

	fin := waitTerminal(t, ts, "j000007", 60*time.Second)
	if fin.State != sched.StateDone || !fin.Replayed {
		t.Fatalf("replayed job = %+v, want done+replayed", fin)
	}
	if got, want := fetchResult(t, ts, "j000007"), directOutput(t, "table4"); got != want {
		t.Error("replayed job's result differs from direct sgxbench output")
	}

	parked := getStatus(t, ts, "j000008")
	if parked.State != sched.StateQuarantined || parked.Error != "poison cell" || parked.Attempts != 3 {
		t.Fatalf("parked job = %+v, want quarantined(poison cell, 3)", parked)
	}
	if q := quarantineList(t, ts); len(q) != 1 || q[0].ID != "j000008" {
		t.Errorf("quarantine list = %+v", q)
	}

	fresh := submit(t, ts, sched.SubmitRequest{Experiment: "table4"})
	if fresh.ID <= "j000008" {
		t.Errorf("fresh ID %s collides with replayed sequence", fresh.ID)
	}
	waitTerminal(t, ts, fresh.ID, 30*time.Second)
}

// TestJournalSettlesAcrossRestart: after a replayed job completes, a
// second restart has nothing to resume — the finished record settled it.
func TestJournalSettlesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}

	registerTestExperiments()
	s1, err := New(Config{Store: st, Workers: 1, Parallel: 4, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	job := submit(t, ts1, sched.SubmitRequest{Experiment: "table4"})
	waitTerminal(t, ts1, job.ID, 60*time.Second)
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, replay, err := sched.OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Jobs) != 0 {
		t.Errorf("second restart resurrected settled jobs: %+v", replay.Jobs)
	}
	if replay.MaxSeq != 1 {
		t.Errorf("MaxSeq = %d, want 1", replay.MaxSeq)
	}
}

// TestReadyz: ready once boot replay finishes, 503 while shutting down;
// /healthz stays 200 throughout (liveness is not readiness).
func TestReadyz(t *testing.T) {
	registerTestExperiments()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before shutdown: %s", resp.Status)
	}

	s.Shutdown(context.Background())
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after shutdown: %s, want 503", resp2.Status)
	}
	var rd struct {
		Ready bool   `json:"ready"`
		Queue string `json:"queue"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	if rd.Ready || rd.Queue == "" {
		t.Errorf("readyz body = %+v, want not-ready with queue reason", rd)
	}
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("healthz after shutdown: %s (liveness must not track readiness)", resp3.Status)
	}
}
