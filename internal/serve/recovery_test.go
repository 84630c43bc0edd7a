package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
)

// TestStoreCorruptionRecovery drives every on-disk damage mode through the
// full serving path: a computed result is damaged, the next submission
// detects the damage as a miss and recomputes byte-identically, and the
// recompute re-persists a verified entry that the submission after that is
// served from. The store never serves damaged bytes and never sticks in a
// corrupt state.
func TestStoreCorruptionRecovery(t *testing.T) {
	truncate := func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, body, meta string)
	}{
		{"truncated body", func(t *testing.T, body, meta string) { truncate(t, body) }},
		{"truncated meta", func(t *testing.T, body, meta string) { truncate(t, meta) }},
		{"meta without body", func(t *testing.T, body, meta string) { os.Remove(body) }},
		{"body without meta", func(t *testing.T, body, meta string) { os.Remove(meta) }},
		{"stale sim version", func(t *testing.T, body, meta string) {
			raw, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			var m store.Meta
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			m.Version = "sgxbounds-sim/0"
			out, _ := json.Marshal(m)
			if err := os.WriteFile(meta, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped checksum", func(t *testing.T, body, meta string) {
			raw, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			var m store.Meta
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			sum := []byte(m.BodySHA256)
			if sum[0] == 'f' {
				sum[0] = '0'
			} else {
				sum[0] = 'f'
			}
			m.BodySHA256 = string(sum)
			out, _ := json.Marshal(m)
			if err := os.WriteFile(meta, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, 1)
			first := submit(t, ts, sched.SubmitRequest{Experiment: "table4"})
			fin := waitTerminal(t, ts, first.ID, 60*time.Second)
			if fin.State != sched.StateDone {
				t.Fatalf("seed run: %s (%s)", fin.State, fin.Error)
			}
			original := fetchResult(t, ts, first.ID)

			dir := filepath.Join(s.store.Root(), first.Key[:2])
			tc.damage(t, filepath.Join(dir, first.Key+".body"), filepath.Join(dir, first.Key+".json"))

			second := submit(t, ts, sched.SubmitRequest{Experiment: "table4"})
			fin2 := waitTerminal(t, ts, second.ID, 60*time.Second)
			if fin2.State != sched.StateDone {
				t.Fatalf("recompute: %s (%s)", fin2.State, fin2.Error)
			}
			if fin2.FromStore {
				t.Fatal("damaged entry was served from store")
			}
			if got := fetchResult(t, ts, second.ID); got != original {
				t.Error("recompute differs from the original result")
			}

			// The recompute re-persisted a verified entry: the next
			// submission is warm again and still byte-identical.
			third := submit(t, ts, sched.SubmitRequest{Experiment: "table4"})
			fin3 := waitTerminal(t, ts, third.ID, 10*time.Second)
			if fin3.State != sched.StateDone || !fin3.FromStore {
				t.Fatalf("post-recovery submission not warm: %+v", fin3)
			}
			if got := fetchResult(t, ts, third.ID); got != original {
				t.Error("re-persisted entry serves different bytes")
			}
		})
	}
}
