package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// newDaemon stands up a real sgxd over a manual queue with a poisoned
// compute stub: every attempt fails with the same injected fault, so
// driving the worker quarantines a job deterministically. The goldens
// therefore exercise the daemon's real quarantine wire format, not canned
// JSON.
func newDaemon(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Store:   st,
		Manual:  true,
		Backlog: 8,
		Journal: filepath.Join(dir, "journal.jsonl"),
		Compute: func(ctx context.Context, spec bench.Job) (*sched.ResultBundle, error) {
			return nil, &faultline.Fault{Op: "golden.compute", Detail: spec.Experiment, Kind: "error"}
		},
		MaxAttempts: 2,
		RetryBase:   time.Nanosecond,
		RetryCap:    time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Abort()
	})
	return srv, ts
}

// quarantineOne submits one fig2 job and drives the manual worker until it
// lands in quarantine (two failing attempts under MaxAttempts=2).
func quarantineOne(t *testing.T, srv *serve.Server) string {
	t.Helper()
	j, err := srv.Submit(sched.SubmitRequest{Experiment: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	id := j.Status().ID
	for i := 0; i < 10; i++ {
		if st, ok := srv.Status(id); ok && st.State == sched.StateQuarantined {
			return id
		}
		srv.RunNext()
	}
	st, _ := srv.Status(id)
	t.Fatalf("job %s never quarantined (state %s)", id, st.State)
	return ""
}

// runCommand runs one sgxctl command against the test daemon and returns
// the combined golden rendering of its two output streams.
func runCommand(t *testing.T, base string, run func(c *client) error) string {
	t.Helper()
	var out, errOut bytes.Buffer
	c := &client{base: base, out: &out, errOut: &errOut}
	if err := run(c); err != nil {
		t.Fatalf("command failed: %v", err)
	}
	return fmt.Sprintf("-- stdout --\n%s-- stderr --\n%s", out.String(), errOut.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

func TestQuarantineLsEmptyGolden(t *testing.T) {
	_, ts := newDaemon(t)
	got := runCommand(t, ts.URL, func(c *client) error { return c.quarantine([]string{"ls"}) })
	checkGolden(t, "quarantine-ls-empty.golden", got)
}

func TestQuarantineLsGolden(t *testing.T) {
	srv, ts := newDaemon(t)
	quarantineOne(t, srv)
	got := runCommand(t, ts.URL, func(c *client) error { return c.quarantine([]string{"ls"}) })
	checkGolden(t, "quarantine-ls.golden", got)
}

func TestRequeueGolden(t *testing.T) {
	srv, ts := newDaemon(t)
	id := quarantineOne(t, srv)
	got := runCommand(t, ts.URL, func(c *client) error { return c.requeue([]string{id}) })
	checkGolden(t, "requeue.golden", got)

	// A second release of the same job must be refused, and the refusal is
	// part of the operator contract too.
	var buf bytes.Buffer
	c := &client{base: ts.URL, out: &buf, errOut: &buf}
	err := c.requeue([]string{id})
	if err == nil {
		t.Fatal("second requeue of the same job succeeded")
	}
	checkGolden(t, "requeue-again.golden", err.Error()+"\n")
}
