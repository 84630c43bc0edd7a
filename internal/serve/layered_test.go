package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
)

// newLayeredServer builds a server whose compute is a gated counting stub:
// jobs block until release() is called, so tests can hold a computation
// in flight while they hammer the front door.
func newLayeredServer(t *testing.T, cfg Config) (s *Server, computes *atomic.Int64, release func()) {
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
	gate := make(chan struct{})
	var n atomic.Int64
	cfg.Compute = func(ctx context.Context, spec bench.Job) (*sched.ResultBundle, error) {
		n.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return &sched.ResultBundle{Output: "layered output for " + spec.Experiment + "\n"}, nil
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, &n, release
}

// TestMassiveCoalescing is the acceptance bar from ISSUE 7: 10k identical
// concurrent submits trigger exactly one computation. Every submission
// attaches to the same job record, so every caller observes the same
// result bytes by construction; the HTTP-level sibling below checks the
// same property through the wire.
func TestMassiveCoalescing(t *testing.T) {
	s, computes, release := newLayeredServer(t, Config{})

	const n = 10000
	var wg sync.WaitGroup
	var leaders, followers, failures atomic.Int64
	jobs := make([]*sched.Job, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, coalesced, err := s.Admit("herd", sched.SubmitRequest{Experiment: "fig2"})
			if err != nil {
				failures.Add(1)
				return
			}
			jobs[i] = j
			if coalesced {
				followers.Add(1)
			} else {
				leaders.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d admissions failed", failures.Load())
	}
	if leaders.Load() != 1 || followers.Load() != n-1 {
		t.Fatalf("leaders=%d followers=%d, want 1/%d", leaders.Load(), followers.Load(), n-1)
	}
	for i := 1; i < n; i++ {
		if jobs[i] != jobs[0] {
			t.Fatalf("submission %d got a different job record", i)
		}
	}

	release()
	<-jobs[0].Done()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times for %d identical submits, want exactly 1", got, n)
	}
	bundle, ok := jobs[0].Bundle()
	if !ok || bundle.Output != "layered output for fig2\n" {
		t.Fatalf("shared result = %+v ok=%v", bundle, ok)
	}
}

// TestHTTPCoalescingByteIdentical drives the same property through the
// HTTP transport: concurrent identical POSTs share one job ID, followers
// carry the coalesced header, and every result fetch returns identical
// bytes.
func TestHTTPCoalescingByteIdentical(t *testing.T) {
	s, computes, release := newLayeredServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 64
	ids := make([]string, n)
	coalesced := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
				strings.NewReader(`{"experiment":"fig2"}`))
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				body, _ := io.ReadAll(resp.Body)
				t.Errorf("post %d: %s (%s)", i, resp.Status, body)
				return
			}
			var st sched.JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Errorf("decode %d: %v", i, err)
				return
			}
			ids[i] = st.ID
			coalesced[i] = resp.Header.Get(CoalescedHeader) == "true"
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	leaders := 0
	for i := 0; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d landed on job %s, others on %s", i, ids[i], ids[0])
		}
		if !coalesced[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d uncoalesced submissions, want 1", leaders)
	}

	release()
	waitTerminal(t, ts, ids[0], 10*time.Second)
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}

	var first []byte
	for i := 0; i < n; i++ {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + ids[i] + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %d: %s", i, resp.Status)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("result %d differs from the first fetch", i)
		}
	}

	m := metricsText(t, ts)
	if !strings.Contains(m, fmt.Sprintf("sgxd_coalesced_total %d", n-1)) {
		t.Errorf("metrics missing sgxd_coalesced_total %d:\n%s", n-1, m)
	}
}

// TestSaturationYields429 pins the backpressure contract: when the
// backlog is full, submits are rejected with 429 + Retry-After, and the
// rejection counter is exported.
func TestSaturationYields429(t *testing.T) {
	// One worker wedged on the gate, backlog of one: the first submit
	// occupies the worker, the second fills the backlog, the third must
	// bounce.
	s, _, release := newLayeredServer(t, Config{Backlog: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(exp string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"experiment":%q}`, exp)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r1 := post("fig2")
	io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusCreated {
		t.Fatalf("submit 1: %s", r1.Status)
	}
	// The worker picks up fig2 asynchronously; wait until the backlog
	// slot is free so table4 deterministically queues rather than racing.
	deadline := time.Now().Add(5 * time.Second)
	var r2 *http.Response
	for {
		r2 = post("table4")
		if r2.StatusCode == http.StatusCreated || time.Now().After(deadline) {
			break
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusCreated {
		t.Fatalf("submit 2 never queued: %s", r2.Status)
	}

	r3 := post("sleepy")
	body, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %s (%s), want 429", r3.Status, body)
	}
	if ra := r3.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive whole-second pause", ra)
	}
	if m := metricsText(t, ts); !strings.Contains(m, "sgxd_rejected_total") {
		t.Error("metrics missing sgxd_rejected_total")
	}
	release()
}

// TestDrainRejectsSubmitsImmediately pins the ISSUE 7 fix: the moment
// drain begins — before the listener closes, before the queue finishes —
// new submits get 503 and /readyz flips, in lockstep.
func TestDrainRejectsSubmitsImmediately(t *testing.T) {
	s, _, release := newLayeredServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A computation is in flight (wedged on the gate) when drain begins:
	// the server is still fully up, only admission must close.
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"fig2"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pre-drain submit: %s", resp.Status)
	}

	s.BeginDrain()

	r2, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"table4"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %s, want 503", r2.Status)
	}

	r3, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %s, want 503", r3.Status)
	}
	release()
}

// TestCacheTierServesWarmHits wires a real (non-stub) server with the LRU
// enabled and checks the full read path: first job computes, resubmission
// is a warm FromStore hit, and the cache hit counter moves — i.e. the hit
// was served by the memory tier, not disk.
func TestCacheTierServesWarmHits(t *testing.T) {
	registerTestExperiments()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, Parallel: 4, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	first := submit(t, ts, sched.SubmitRequest{Experiment: "fig2"})
	fin := waitTerminal(t, ts, first.ID, 60*time.Second)
	if fin.State != sched.StateDone {
		t.Fatalf("first run = %s (%s)", fin.State, fin.Error)
	}

	second := submit(t, ts, sched.SubmitRequest{Experiment: "fig2"})
	fin2 := waitTerminal(t, ts, second.ID, 10*time.Second)
	if fin2.State != sched.StateDone || !fin2.FromStore {
		t.Fatalf("resubmission = %+v, want done+from_store", fin2)
	}
	if fetchResult(t, ts, first.ID) != fetchResult(t, ts, second.ID) {
		t.Error("warm hit served different bytes")
	}

	m := metricsText(t, ts)
	if strings.Contains(m, "sgxd_cache_hits_total 0\n") {
		t.Errorf("warm hit did not touch the memory tier:\n%s", m)
	}
	if !strings.Contains(m, "sgxd_cache_hits_total") {
		t.Error("metrics missing sgxd_cache_hits_total")
	}
}
