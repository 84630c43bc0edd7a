package protocheck

import (
	"sync"

	"sgxbounds/internal/bench"
	jobsched "sgxbounds/internal/serve/sched"
)

// OpKind is one actor operation.
type OpKind int

const (
	// OpSubmit submits Req to the server (a client POST).
	OpSubmit OpKind = iota
	// OpRunNext lets the worker execute one queued job to completion
	// (including its whole retry/quarantine saga); a no-op when the
	// backlog is empty.
	OpRunNext
	// OpRequeue releases the first quarantined job this execution has not
	// requeued yet; a no-op when there is none.
	OpRequeue
	// OpGC runs a store garbage collection.
	OpGC
	// OpRestart restarts the daemon gracefully (journal close, reopen,
	// replay) — the deploy-rollout path, as opposed to a crash.
	OpRestart
)

func (k OpKind) String() string {
	switch k {
	case OpSubmit:
		return "submit"
	case OpRunNext:
		return "run-next"
	case OpRequeue:
		return "requeue"
	case OpGC:
		return "gc"
	case OpRestart:
		return "restart"
	}
	return "?"
}

// Op is one operation in an actor's script.
type Op struct {
	Kind OpKind
	Req  jobsched.SubmitRequest // OpSubmit only
}

// Actor is one concurrent participant: a named script of operations.
type Actor struct {
	Name string
	Ops  []Op
}

// Program is a scenario: the actors whose operation interleavings the
// explorer enumerates.
type Program struct {
	Name   string
	Actors []Actor
}

// steps returns the total operation count.
func (p Program) steps() int {
	n := 0
	for _, a := range p.Actors {
		n += len(a.Ops)
	}
	return n
}

// The protocheck experiments: registered as Custom bench experiments so
// Job.Validate accepts them, but never executed — the world's Compute stub
// supplies their results. expPoison fails every attempt with an injected
// fault, driving the retry/quarantine protocol.
const (
	expA      = "protocheck-a"
	expB      = "protocheck-b"
	expPoison = "protocheck-poison"
)

var registerOnce sync.Once

// registerExperiments installs the protocheck experiment names in the
// bench registry (idempotent; test binaries call Explore many times).
func registerExperiments() {
	registerOnce.Do(func() {
		for _, name := range []string{expA, expB, expPoison} {
			bench.Register(bench.Experiment{
				Name: name, Desc: "protocheck model experiment (never executed)",
				Custom: true,
				Run:    nil, // the world's Compute stub replaces the engine
			})
		}
	})
}

// Programs returns the standard scenarios the tests explore. Each is small
// enough that its schedule space dwarfs any test budget, and together they
// cover submission races, warm-path/compute races, retry and quarantine,
// requeue, GC, and both restart flavors.
func Programs() []Program {
	registerExperiments()
	subA := jobsched.SubmitRequest{Experiment: expA}
	subB := jobsched.SubmitRequest{Experiment: expB}
	poison := jobsched.SubmitRequest{Experiment: expPoison}
	return []Program{
		{
			// Two clients race duplicate and distinct submissions against
			// one worker; the admin GCs mid-flight.
			Name: "duplicate-submits",
			Actors: []Actor{
				{Name: "c1", Ops: []Op{{Kind: OpSubmit, Req: subA}, {Kind: OpSubmit, Req: subB}}},
				{Name: "c2", Ops: []Op{{Kind: OpSubmit, Req: subA}}},
				{Name: "w", Ops: []Op{{Kind: OpRunNext}, {Kind: OpRunNext}, {Kind: OpRunNext}}},
				{Name: "adm", Ops: []Op{{Kind: OpGC}}},
			},
		},
		{
			// A poison job quarantines and is released; the replacement
			// quarantines again. Settle-exactly-once under crashes.
			Name: "quarantine-requeue",
			Actors: []Actor{
				{Name: "c1", Ops: []Op{{Kind: OpSubmit, Req: poison}, {Kind: OpSubmit, Req: subA}}},
				{Name: "w", Ops: []Op{{Kind: OpRunNext}, {Kind: OpRunNext}, {Kind: OpRunNext}}},
				{Name: "adm", Ops: []Op{{Kind: OpRequeue}}},
			},
		},
		{
			// A graceful restart lands somewhere between submissions and
			// executions; replayed jobs must converge byte-identically.
			Name: "restart-mid-stream",
			Actors: []Actor{
				{Name: "c1", Ops: []Op{{Kind: OpSubmit, Req: subA}, {Kind: OpSubmit, Req: subB}}},
				{Name: "w", Ops: []Op{{Kind: OpRunNext}, {Kind: OpRunNext}}},
				{Name: "adm", Ops: []Op{{Kind: OpRestart}}},
			},
		},
	}
}
