// Cluster-churn measurement: how much does a membership change cost the
// submit path? -cluster-churn FILE boots an in-process 3-node fleet with a
// stub compute (routing/forwarding dominate; the engine never runs), drives
// fixed-rate distinct submissions at it, then joins a fourth node mid-load
// and keeps submitting. The two phase reports merge into FILE under
// {"runs": {"3node-static": ..., "join-under-load": ...}} — the same merge
// shape sgxload's -label uses, so BENCH_cluster.json accumulates the
// steady-state and churn-window latency side by side.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/cluster"
	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
)

const (
	churnRPS      = 100
	churnPhaseDur = 2 * time.Second
	churnBeat     = 25 * time.Millisecond
)

// churnLatency is the submit-latency summary of one phase, in ms.
type churnLatency struct {
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// churnRun is one phase report, merged under its label in the runs map.
type churnRun struct {
	Nodes           int          `json:"nodes"`
	TargetRPS       int          `json:"target_rps"`
	DurationSec     float64      `json:"duration_sec"`
	Issued          int          `json:"issued"`
	Accepted        int          `json:"accepted"`
	Rejected429     int          `json:"rejected_429"`
	EpochBefore     uint64       `json:"epoch_before,omitempty"`
	EpochAfter      uint64       `json:"epoch_after,omitempty"`
	Rereplicated    int64        `json:"rereplicated_total,omitempty"`
	SubmitLatencyMS churnLatency `json:"submit_latency_ms"`
	Unix            int64        `json:"unix"`
}

// churnNode is one in-process clustered daemon.
type churnNode struct {
	id  string
	url string
	srv *serve.Server
	hs  *http.Server
	dir string
}

func (n *churnNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	n.srv.Shutdown(ctx)
	cancel()
	n.hs.Close()
	os.RemoveAll(n.dir)
}

// startChurnNode boots one daemon on a pre-bound listener with the given
// membership as its boot view (a solo view is the -join pre-announce state).
func startChurnNode(ln net.Listener, self cluster.Node, members []cluster.Node) (*churnNode, error) {
	dir, err := os.MkdirTemp("", "benchjson-churn-*")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir + "/store")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Store:   st,
		Workers: 2,
		Compute: func(ctx context.Context, spec bench.Job) (*sched.ResultBundle, error) {
			return &sched.ResultBundle{
				Output: fmt.Sprintf("churn output for %s threads=%d\n", spec.Experiment, spec.Threads),
			}, nil
		},
		Cluster: &serve.ClusterConfig{
			Self:      self.ID,
			Nodes:     members,
			Heartbeat: churnBeat,
			DeadAfter: 3,
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &churnNode{id: self.ID, url: "http://" + ln.Addr().String(), srv: srv, hs: hs, dir: dir}, nil
}

// churnStatus decodes one node's membership view.
func churnStatus(base string) (cluster.Status, error) {
	var st cluster.Status
	resp, err := http.Get(base + "/api/v1/cluster/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("cluster status: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitChurnMembership blocks until every node sees `want` alive members.
func waitChurnMembership(nodes []*churnNode, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		settled := true
		for _, n := range nodes {
			st, err := churnStatus(n.url)
			if err != nil {
				settled = false
				break
			}
			alive := 0
			for _, row := range st.Nodes {
				if row.Alive {
					alive++
				}
			}
			if alive != want {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership never converged on %d alive members", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var rereplRe = regexp.MustCompile(`(?m)^sgxd_rereplicated_total (\d+)$`)

// churnRereplicated sums sgxd_rereplicated_total across the fleet.
func churnRereplicated(nodes []*churnNode) int64 {
	var sum int64
	for _, n := range nodes {
		resp, err := http.Get(n.url + "/metrics")
		if err != nil {
			continue
		}
		body, _ := readAll(resp)
		if m := rereplRe.FindSubmatch(body); m != nil {
			v, _ := strconv.ParseInt(string(m[1]), 10, 64)
			sum += v
		}
	}
	return sum
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// runChurnPhase submits distinct fig7 cells (threads = a global sequence,
// so every key is fresh and ring placement varies) round-robin across the
// fronts at the target rate, recording each POST round-trip. 429s count as
// rejected; any 5xx or transport error fails the run — churn must degrade
// latency, never correctness.
func runChurnPhase(fronts []string, seq *int) (churnRun, []time.Duration, error) {
	run := churnRun{TargetRPS: churnRPS, DurationSec: churnPhaseDur.Seconds()}
	var durs []time.Duration
	interval := time.Second / time.Duration(churnRPS)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	deadline := time.Now().Add(churnPhaseDur)
	for i := 0; time.Now().Before(deadline); i++ {
		<-tick.C
		*seq++
		body := fmt.Sprintf(`{"experiment":"fig7","threads":%d}`, *seq)
		front := fronts[i%len(fronts)]
		start := time.Now()
		resp, err := http.Post(front+"/api/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		rt := time.Since(start)
		if err != nil {
			return run, nil, fmt.Errorf("POST %s: %v", front, err)
		}
		io, _ := readAll(resp)
		run.Issued++
		switch {
		case resp.StatusCode == http.StatusCreated:
			run.Accepted++
			durs = append(durs, rt)
		case resp.StatusCode == http.StatusTooManyRequests:
			run.Rejected429++
		default:
			return run, nil, fmt.Errorf("POST %s: HTTP %d: %s", front, resp.StatusCode, io)
		}
	}
	run.SubmitLatencyMS = summarize(durs)
	run.Unix = time.Now().Unix()
	return run, durs, nil
}

// summarize reduces round-trip samples to the committed percentiles.
func summarize(durs []time.Duration) churnLatency {
	if len(durs) == 0 {
		return churnLatency{}
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(q float64) float64 {
		idx := int(q*float64(len(sorted)-1) + 0.5)
		return ms(sorted[idx])
	}
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	return churnLatency{
		P50:  pct(0.50),
		P99:  pct(0.99),
		Max:  ms(sorted[len(sorted)-1]),
		Mean: ms(total) / float64(len(sorted)),
	}
}

// measureClusterChurn runs both phases and merges the reports into outPath.
func measureClusterChurn(outPath string) error {
	// Bind every listener before any server starts so the boot membership
	// is complete and reachable from the first heartbeat.
	listeners := make([]net.Listener, 3)
	members := make([]cluster.Node, 3)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = ln
		members[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
	}
	var nodes []*churnNode
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	for i := range listeners {
		n, err := startChurnNode(listeners[i], members[i], members)
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	if err := waitChurnMembership(nodes, 3, 10*time.Second); err != nil {
		return err
	}
	fronts := []string{nodes[0].url, nodes[1].url, nodes[2].url}

	var seq int
	static, _, err := runChurnPhase(fronts, &seq)
	if err != nil {
		return fmt.Errorf("3node-static: %w", err)
	}
	static.Nodes = 3
	fmt.Fprintf(os.Stderr, "benchjson: 3node-static %d submits, p50 %.2fms p99 %.2fms\n",
		static.Accepted, static.SubmitLatencyMS.P50, static.SubmitLatencyMS.P99)

	before, err := churnStatus(nodes[0].url)
	if err != nil {
		return err
	}

	// Boot the joiner as a fleet of one (the `sgxd -join` pre-announce
	// state), then fire its join announcement mid-phase while the original
	// fronts keep taking traffic — the phase spans the epoch bump, the
	// ring rebuild, and the first forwards onto a still-warming member.
	ln4, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	self4 := cluster.Node{ID: "n4", Addr: "http://" + ln4.Addr().String()}
	n4, err := startChurnNode(ln4, self4, []cluster.Node{self4})
	if err != nil {
		return err
	}
	nodes = append(nodes, n4)
	joinErr := make(chan error, 1)
	go func() {
		time.Sleep(churnPhaseDur / 4)
		body, _ := json.Marshal(map[string]string{"seed": nodes[0].url})
		resp, err := http.Post(n4.url+"/api/v1/cluster/join", "application/json", bytes.NewReader(body))
		if err != nil {
			joinErr <- err
			return
		}
		raw, _ := readAll(resp)
		if resp.StatusCode != http.StatusOK {
			joinErr <- fmt.Errorf("join: HTTP %d: %s", resp.StatusCode, raw)
			return
		}
		joinErr <- nil
	}()

	joined, _, err := runChurnPhase(fronts, &seq)
	if err != nil {
		return fmt.Errorf("join-under-load: %w", err)
	}
	if err := <-joinErr; err != nil {
		return err
	}
	if err := waitChurnMembership(nodes, 4, 15*time.Second); err != nil {
		return err
	}
	after, err := churnStatus(nodes[0].url)
	if err != nil {
		return err
	}
	// Give re-replication a window to push the newcomer's share; the count
	// is recorded, not gated (membership_smoke.sh is the gate).
	var repl int64
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); {
		if repl = churnRereplicated(nodes); repl >= 1 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	joined.Nodes = 4
	joined.EpochBefore = before.Epoch
	joined.EpochAfter = after.Epoch
	joined.Rereplicated = repl
	fmt.Fprintf(os.Stderr, "benchjson: join-under-load %d submits, p50 %.2fms p99 %.2fms, epoch %d->%d, re-replicated %d\n",
		joined.Accepted, joined.SubmitLatencyMS.P50, joined.SubmitLatencyMS.P99,
		joined.EpochBefore, joined.EpochAfter, repl)

	return mergeChurnRuns(outPath, map[string]churnRun{
		"3node-static":    static,
		"join-under-load": joined,
	})
}

// mergeChurnRuns folds the phase reports into outPath's {"runs": {...}}
// map — sgxload's -label merge shape — so the committed 1node/3node runs
// survive alongside the churn pair.
func mergeChurnRuns(outPath string, runs map[string]churnRun) error {
	merged := struct {
		Runs map[string]json.RawMessage `json:"runs"`
	}{Runs: map[string]json.RawMessage{}}
	if prev, err := os.ReadFile(outPath); err == nil {
		json.Unmarshal(prev, &merged) // unreadable/legacy content starts fresh
		if merged.Runs == nil {
			merged.Runs = map[string]json.RawMessage{}
		}
	}
	for label, run := range runs {
		blob, err := json.Marshal(run)
		if err != nil {
			return err
		}
		merged.Runs[label] = blob
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(out, '\n'), 0o644)
}
