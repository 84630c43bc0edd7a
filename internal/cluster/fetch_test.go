package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"slices"
	"sync"
	"testing"

	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/telemetry"
)

// peerMode is how a fake peer answers every result fetch.
type peerMode int

const (
	serveOK      peerMode = iota // a verified envelope
	serveCorrupt                 // the envelope's body with one bit flipped
	serveMissing                 // a clean 404
	serveError                   // a 500
)

// fetchLog records, in order, which fake peers were asked for a result.
type fetchLog struct {
	mu  sync.Mutex
	ids []string
}

func (l *fetchLog) add(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ids = append(l.ids, id)
}

func (l *fetchLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.ids)
}

func (l *fetchLog) count(id string) int {
	n := 0
	for _, got := range l.snapshot() {
		if got == id {
			n++
		}
	}
	return n
}

// peerBody is the result bytes fake peer id serves.
func peerBody(id string) []byte { return []byte("result held by " + id + "\n") }

// newFetchFleet builds n1's view of a fleet whose other members are httptest
// peers n2, n3, ... answering result fetches per modes, all marked alive.
func newFetchFleet(t *testing.T, modes ...peerMode) (*Cluster, *fetchLog) {
	t.Helper()
	log := &fetchLog{}
	nodes := []Node{{ID: "n1", Addr: "http://127.0.0.1:1"}}
	for i, mode := range modes {
		id := fmt.Sprintf("n%d", i+2)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			log.add(id)
			switch mode {
			case serveMissing:
				http.Error(w, "no such result", http.StatusNotFound)
				return
			case serveError:
				http.Error(w, "store unavailable", http.StatusInternalServerError)
				return
			}
			env := envelopeFor(path.Base(r.URL.Path), r.URL.Query().Get("version"), peerBody(id))
			if mode == serveCorrupt {
				env.Body[0] ^= 0x01
			}
			json.NewEncoder(w).Encode(env)
		}))
		t.Cleanup(srv.Close)
		nodes = append(nodes, Node{ID: id, Addr: srv.URL})
	}
	c, err := New(Config{Self: "n1", Nodes: nodes, Local: nopLocal{}, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	for _, ps := range c.peers {
		ps.alive = true
	}
	c.mu.Unlock()
	return c, log
}

func envelopeFor(key, version string, body []byte) ResultEnvelope {
	sum := sha256.Sum256(body)
	return ResultEnvelope{
		Meta: store.Meta{Key: key, Version: version, Size: int64(len(body)), BodySHA256: hex.EncodeToString(sum[:])},
		Body: body,
	}
}

// keyOwnedBy finds a probe key the ring places on node id.
func keyOwnedBy(t *testing.T, c *Cluster, id string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if key := fmt.Sprintf("key-%d", i); c.ownerOf(key) == id {
			return key
		}
	}
	t.Fatalf("no probe key hashed to %s", id)
	return ""
}

func TestFetchResultTriesOwnerFirst(t *testing.T) {
	c, log := newFetchFleet(t, serveOK, serveOK, serveOK)
	key := keyOwnedBy(t, c, "n3")
	body, meta, ok := c.FetchResult(key, "v1")
	if !ok || string(body) != string(peerBody("n3")) || meta.Key != key {
		t.Fatalf("FetchResult = (%q, %+v, %v), want the owner n3's verified body", body, meta, ok)
	}
	if got := log.snapshot(); !slices.Equal(got, []string{"n3"}) {
		t.Fatalf("peers asked %v, want only the owner [n3]", got)
	}
	if got := c.peerFetches.Value(); got != 1 {
		t.Fatalf("peer_fetches = %d, want 1", got)
	}
}

func TestFetchResultWalksOwnerThenPeersByID(t *testing.T) {
	c, log := newFetchFleet(t, serveMissing, serveMissing, serveMissing)
	key := keyOwnedBy(t, c, "n3")
	if _, _, ok := c.FetchResult(key, "v1"); ok {
		t.Fatal("FetchResult hit with every peer answering 404")
	}
	if got, want := log.snapshot(), []string{"n3", "n2", "n4"}; !slices.Equal(got, want) {
		t.Fatalf("walk order %v, want %v (owner, then the rest by ID, one each)", got, want)
	}
	if got := c.peerFetches.Value(); got != 0 {
		t.Fatalf("peer_fetches = %d after a miss, want 0", got)
	}
}

func TestFetchResultCorruptEnvelopeFallsThrough(t *testing.T) {
	c, log := newFetchFleet(t, serveCorrupt, serveOK)
	key := keyOwnedBy(t, c, "n2")
	body, _, ok := c.FetchResult(key, "v1")
	if !ok || string(body) != string(peerBody("n3")) {
		t.Fatalf("FetchResult = (%q, %v), want n3's verified body after n2's corrupt one", body, ok)
	}
	if got := log.snapshot(); !slices.Equal(got, []string{"n2", "n3"}) {
		t.Fatalf("peers asked %v, want [n2 n3]", got)
	}
	if got := c.peerCorrupt.Value(); got != 1 {
		t.Fatalf("cluster.peer_corrupt = %d, want 1", got)
	}
	if c.breakers.open("n2") {
		t.Fatal("a corrupt body opened n2's breaker: the peer answered, so it is reachable")
	}
}

func TestFetchResultBreakerCountsOnlyServerErrors(t *testing.T) {
	c, log := newFetchFleet(t, serveMissing, serveError)
	key := keyOwnedBy(t, c, "n2")
	for i := 0; i < breakerThreshold; i++ {
		if _, _, ok := c.FetchResult(key, "v1"); ok {
			t.Fatal("FetchResult hit with no peer holding the result")
		}
	}
	if c.breakers.open("n2") {
		t.Fatal("clean 404s opened n2's breaker")
	}
	if !c.breakers.open("n3") {
		t.Fatalf("n3's breaker not open after %d consecutive 500s", breakerThreshold)
	}
	if got := c.breakerOpens.Value(); got != 1 {
		t.Fatalf("cluster.breaker_opens = %d, want 1", got)
	}
	if got := log.count("n3"); got != breakerThreshold {
		t.Fatalf("n3 asked %d times, want %d", got, breakerThreshold)
	}
}

func TestFetchResultSkipsOpenBreaker(t *testing.T) {
	c, log := newFetchFleet(t, serveOK, serveOK)
	key := keyOwnedBy(t, c, "n2")
	for i := 0; i < breakerThreshold; i++ {
		c.breakers.failure("n2")
	}
	body, _, ok := c.FetchResult(key, "v1")
	if !ok || string(body) != string(peerBody("n3")) {
		t.Fatalf("FetchResult = (%q, %v), want n3's body with the owner's breaker open", body, ok)
	}
	if got := log.snapshot(); !slices.Equal(got, []string{"n3"}) {
		t.Fatalf("peers asked %v, want [n3]: an open breaker must be skipped", got)
	}
}
