package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
)

// "echo-epc" is an EPC-aware test experiment whose output is just the
// capacity it was asked to sweep — the cheapest way to observe which value
// actually reached the experiment through the serving layers.
var registerEPCOnce sync.Once

func registerEPCExperiment() {
	registerEPCOnce.Do(func() {
		bench.Register(bench.Experiment{
			Name: "echo-epc", Desc: "test experiment: echoes opts.EPCBytes", Custom: true, UsesEPC: true,
			Run: func(e *bench.Engine, w io.Writer, opts bench.RunOpts) error {
				fmt.Fprintf(w, "epc=%d\n", opts.EPCBytes)
				return nil
			},
		})
	})
}

// TestDefaultEPCBytesResolvedAtAdmission pins where the server's -epc-bytes
// default is applied: before the scheduler sees the request, so the job's
// identity, its store key, journal replay and cluster forwarding all carry
// the resolved capacity rather than a node-local zero.
func TestDefaultEPCBytesResolvedAtAdmission(t *testing.T) {
	registerEPCExperiment()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, DefaultEPCBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	run := func(req sched.SubmitRequest) sched.JobStatus {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		stat := j.Status()
		if stat.State != sched.StateDone {
			t.Fatalf("job ended %s: %s", stat.State, stat.Error)
		}
		return stat
	}
	output := func(stat sched.JobStatus) string {
		t.Helper()
		res, ok := s.Result(stat.ID)
		if !ok {
			t.Fatalf("no result for %s", stat.ID)
		}
		return res.Output
	}

	defaulted := run(sched.SubmitRequest{Experiment: "echo-epc"})
	if got := output(defaulted); got != "epc=2097152\n" {
		t.Errorf("defaulted submission ran with %q, want epc=2097152", got)
	}
	if defaulted.Job.EPCBytes != 2<<20 {
		t.Errorf("canonical job carries EPCBytes=%d, want the resolved default", defaulted.Job.EPCBytes)
	}
	if want := (sched.SubmitRequest{Experiment: "echo-epc", EPCBytes: 2 << 20}).StoreKey(); defaulted.Key != want {
		t.Errorf("store key %s does not match the resolved request's key %s", defaulted.Key, want)
	}

	explicit := run(sched.SubmitRequest{Experiment: "echo-epc", EPCBytes: 4 << 20})
	if got := output(explicit); got != "epc=4194304\n" {
		t.Errorf("explicit submission ran with %q, want epc=4194304", got)
	}
	if explicit.Key == defaulted.Key {
		t.Error("different EPC capacities collided on one store key")
	}
}
