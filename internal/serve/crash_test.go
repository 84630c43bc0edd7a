package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve/sched"
)

// The crash suite exercises a real sgxd binary: build it, run it, kill it
// with SIGKILL (or let an injected crash point abort it) mid-job, restart
// it over the same store and journal, and require the interrupted job to
// converge to byte-identical output. Gated behind SGXD_CHAOS=1 — it
// compiles a binary and burns tens of seconds of simulation, which
// belongs in the CI chaos job, not every `go test ./...`.

func chaosEnabled(t *testing.T) {
	t.Helper()
	if os.Getenv("SGXD_CHAOS") != "1" {
		t.Skip("set SGXD_CHAOS=1 to run process crash tests")
	}
}

func buildSgxd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sgxd")
	cmd := exec.Command("go", "build", "-o", bin, "sgxbounds/cmd/sgxd")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build sgxd: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startSgxd launches the daemon and blocks until /readyz reports ready —
// the same gate CI uses instead of sleeping.
func startSgxd(t *testing.T, bin, addr string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sgxd at %s never became ready", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func postJob(t *testing.T, addr string, req sched.SubmitRequest) sched.JobStatus {
	t.Helper()
	raw, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/api/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	var st sched.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func jobStatusAt(t *testing.T, addr, id string) (sched.JobStatus, error) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/api/v1/jobs/" + id)
	if err != nil {
		return sched.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st sched.JobStatus
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func waitDoneAt(t *testing.T, addr, id string, timeout time.Duration) sched.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := jobStatusAt(t, addr, id)
		if err == nil && st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %s (last: %+v, err %v)", id, timeout, st, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func resultAt(t *testing.T, addr, id string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, raw)
	}
	return raw.String()
}

// TestCrashRecoveryConvergesByteIdentical: SIGKILL a real sgxd mid-sweep;
// on restart the journal resumes the interrupted job under its original ID
// and the served result is byte-identical to a direct sgxbench run.
func TestCrashRecoveryConvergesByteIdentical(t *testing.T) {
	chaosEnabled(t)
	bin := buildSgxd(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	journal := filepath.Join(dir, "journal.jsonl")
	addr := freeAddr(t)

	cmd := startSgxd(t, bin, addr, "-store", storeDir, "-journal", journal)
	job := postJob(t, addr, sched.SubmitRequest{Experiment: "fig1"})

	// Let the sweep get properly underway, then kill without ceremony.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := jobStatusAt(t, addr, job.ID)
		if err == nil && st.State == sched.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(2 * time.Second)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart over the same store and journal; the job must resume under
	// its original ID and run to completion.
	startSgxd(t, bin, addr, "-store", storeDir, "-journal", journal)
	fin := waitDoneAt(t, addr, job.ID, 5*time.Minute)
	if fin.State != sched.StateDone {
		t.Fatalf("resumed job = %s (%s), want done", fin.State, fin.Error)
	}
	if !fin.Replayed {
		t.Error("resumed job not marked replayed")
	}

	var want bytes.Buffer
	if err := bench.RunJob(bench.NewEngine(0), bench.Job{Experiment: "fig1"}, &want, nil); err != nil {
		t.Fatal(err)
	}
	if got := resultAt(t, addr, job.ID); got != want.String() {
		t.Error("post-crash result differs from direct sgxbench output")
	}
}

// TestCrashPointInTornWriteWindow: an injected crash at
// "store.between-writes" — after the body rename, before the meta commit —
// aborts the process in the exact torn-write window the store's commit
// protocol defends. Restart must see no committed entry, re-run the job,
// and serve byte-identical output.
func TestCrashPointInTornWriteWindow(t *testing.T) {
	chaosEnabled(t)
	bin := buildSgxd(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	journal := filepath.Join(dir, "journal.jsonl")

	spec := faultline.Spec{Rules: []faultline.Rule{
		{Op: "crash.store.between-writes", Kind: faultline.KindCrash, Times: 1},
	}}
	specPath := filepath.Join(dir, "faults.json")
	raw, _ := json.Marshal(spec)
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	cmd := startSgxd(t, bin, addr, "-store", storeDir, "-journal", journal, "-faults", specPath)
	job := postJob(t, addr, sched.SubmitRequest{Experiment: "table4"})

	// The crash point fires during the job's persist; the process must die
	// with the SIGKILL-equivalent exit code.
	err := cmd.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != faultline.CrashExitCode {
		t.Fatalf("sgxd exit = %v, want exit code %d", err, faultline.CrashExitCode)
	}

	// The torn write left at most an orphaned body — never a committed
	// meta record.
	if _, err := os.Stat(filepath.Join(storeDir, job.Key[:2], job.Key+".json")); err == nil {
		t.Fatal("meta record committed despite crash before the meta rename")
	}

	startSgxd(t, bin, addr, "-store", storeDir, "-journal", journal)
	fin := waitDoneAt(t, addr, job.ID, 2*time.Minute)
	if fin.State != sched.StateDone {
		t.Fatalf("resumed job = %s (%s), want done", fin.State, fin.Error)
	}
	var want bytes.Buffer
	if err := bench.RunJob(bench.NewEngine(0), bench.Job{Experiment: "table4"}, &want, nil); err != nil {
		t.Fatal(err)
	}
	if got := resultAt(t, addr, job.ID); got != want.String() {
		t.Error("post-crash result differs from direct sgxbench output")
	}
}
