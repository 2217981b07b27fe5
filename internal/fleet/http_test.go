package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"
)

func newHTTPManager(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := NewManager(ManagerOptions{Stripes: 2})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return m, srv
}

func post(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&payload)
	return resp.StatusCode, payload
}

func TestRegistrationEndpoints(t *testing.T) {
	m, srv := newHTTPManager(t)

	status, payload := post(t, srv.URL+"/v1/register", `{"id":"w1","addr":"http://10.0.0.7:7001"}`)
	if status != http.StatusOK {
		t.Fatalf("register: HTTP %d %v", status, payload)
	}
	if payload["replication"] != float64(2) || payload["stripes"] != float64(2) {
		t.Errorf("register response missing deployment shape: %v", payload)
	}
	if mem, ok := m.Table().Lookup("w1"); !ok || mem.Addr != "http://10.0.0.7:7001" {
		t.Fatalf("member not registered: %+v ok=%v", mem, ok)
	}

	if status, _ := post(t, srv.URL+"/v1/heartbeat", `{"id":"w1"}`); status != http.StatusOK {
		t.Errorf("heartbeat known member: HTTP %d", status)
	}
	if status, _ := post(t, srv.URL+"/v1/heartbeat", `{"id":"ghost"}`); status != http.StatusNotFound {
		t.Errorf("heartbeat unknown member: HTTP %d, want 404", status)
	}
	if status, _ := post(t, srv.URL+"/v1/drain", `{"id":"w1"}`); status != http.StatusOK {
		t.Errorf("drain: HTTP %d", status)
	}
	if mem, _ := m.Table().Lookup("w1"); !mem.Draining {
		t.Errorf("drain endpoint did not mark the member draining")
	}

	// Malformed bodies are 400s.
	for _, body := range []string{
		``, `{`, `{"id":""}`, `{"id":"w1","extra":1}`,
		`{"id":"w1","addr":"not a url"}`, `{"id":"w#"}`,
	} {
		if status, _ := post(t, srv.URL+"/v1/register", body); status != http.StatusBadRequest {
			t.Errorf("register %q: HTTP %d, want 400", body, status)
		}
	}
	// Register without addr is also a 400 (heartbeats have their own path).
	if status, _ := post(t, srv.URL+"/v1/register", `{"id":"w9"}`); status != http.StatusBadRequest {
		t.Errorf("register without addr accepted")
	}

	resp, err := http.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatalf("GET /v1/fleet: %v", err)
	}
	defer resp.Body.Close()
	var fleet struct {
		Members  []memberJSON `json:"members"`
		Alive    int          `json:"alive"`
		Draining int          `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatalf("decode fleet: %v", err)
	}
	if len(fleet.Members) != 1 || fleet.Members[0].ID != "w1" || fleet.Alive != 1 || fleet.Draining != 1 {
		t.Errorf("fleet snapshot: %+v", fleet)
	}
}

// TestRegistrarReRegistersAfterEviction runs the worker-side loop against a
// live manager: the registrar registers, heartbeats, and — when the
// coordinator forgets it — re-registers on the next beat.
func TestRegistrarReRegistersAfterEviction(t *testing.T) {
	m, srv := newHTTPManager(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reg := &Registrar{
		Coordinator: srv.URL,
		ID:          "w1",
		Addr:        "http://10.0.0.7:7001",
		Interval:    5 * time.Millisecond,
	}
	done := make(chan struct{})
	go func() { reg.Run(ctx); close(done) }()

	waitFor := func(desc string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("initial registration", func() bool {
		_, ok := m.Table().Lookup("w1")
		return ok
	})
	// Simulate a coordinator restart: the member vanishes from the table.
	m.Table().Remove("w1")
	waitFor("re-registration", func() bool {
		_, ok := m.Table().Lookup("w1")
		return ok
	})
	cancel()
	<-done
}

// TestRegistrarBoundsEachAttempt runs the loop against a coordinator whose
// heartbeat handler never answers: each beat times out after one Interval and
// is reported, the next beat still goes out, and Run returns promptly once
// its context ends.
func TestRegistrarBoundsEachAttempt(t *testing.T) {
	release := make(chan struct{})
	var beats atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(rw http.ResponseWriter, r *http.Request) {
		beats.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(release)

	deadlines := make(chan error, 1)
	reg := &Registrar{
		Coordinator: srv.URL,
		ID:          "w1",
		Addr:        "http://10.0.0.7:7001",
		Interval:    20 * time.Millisecond,
		OnError: func(err error) {
			if errors.Is(err, context.DeadlineExceeded) {
				select {
				case deadlines <- err:
				default:
				}
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	limit := time.After(time.Second)
	go func() { reg.Run(ctx); close(done) }()

	select {
	case <-deadlines:
	case <-limit:
		t.Fatalf("no heartbeat reported a deadline error within 1s")
	}
	for beats.Load() < 2 {
		select {
		case <-limit:
			t.Fatalf("%d heartbeat attempts reached the coordinator within 1s, want at least 2", beats.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("Run did not return within 1s of its context ending")
	}
}

func TestDecodeRegister(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		ok   bool
	}{
		{"valid", `{"id":"w1","addr":"http://h:1"}`, true},
		{"heartbeat shape", `{"id":"w1"}`, true},
		{"https", `{"id":"w1","addr":"https://h:1"}`, true},
		{"empty", ``, false},
		{"not json", `nope`, false},
		{"empty id", `{"id":"","addr":"http://h:1"}`, false},
		{"missing id", `{"addr":"http://h:1"}`, false},
		{"unknown field", `{"id":"w1","port":7001}`, false},
		{"trailing garbage", `{"id":"w1"} {"id":"w2"}`, false},
		{"bad scheme", `{"id":"w1","addr":"ftp://h:1"}`, false},
		{"no host", `{"id":"w1","addr":"http://"}`, false},
		{"space in id", `{"id":"w 1"}`, false},
		{"control char id", "{\"id\":\"w\\u0007\"}", false},
		{"long id", `{"id":"` + strings.Repeat("x", 200) + `"}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeRegister([]byte(tc.raw))
			if tc.ok && err != nil {
				t.Fatalf("DecodeRegister(%q): %v", tc.raw, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("DecodeRegister(%q) accepted: %+v", tc.raw, req)
			}
		})
	}
}

// FuzzDecodeRegister hammers the membership wire decoder the same way
// FuzzDecodeStripe hammers the stripe codec: arbitrary bytes must either
// decode into a request that round-trips cleanly or fail — never panic, and
// never yield an identity that violates the documented bounds.
func FuzzDecodeRegister(f *testing.F) {
	f.Add([]byte(`{"id":"w1","addr":"http://10.0.0.7:7001"}`))
	f.Add([]byte(`{"id":"w1"}`))
	f.Add([]byte(`{"id":"` + strings.Repeat("a", maxIDLen) + `"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"id":"w1","addr":"ftp://x"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := DecodeRegister(raw)
		if err != nil {
			return
		}
		if req.ID == "" || len(req.ID) > maxIDLen {
			t.Fatalf("accepted id violates bounds: %q", req.ID)
		}
		if !utf8.ValidString(req.ID) {
			t.Fatalf("accepted id is not valid UTF-8: %q", req.ID)
		}
		for _, r := range req.ID {
			if r < 0x21 || r > 0x7e {
				t.Fatalf("accepted id contains forbidden rune %q", r)
			}
		}
		// An accepted request must survive a marshal/decode round trip.
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		again, err := DecodeRegister(re)
		if err != nil {
			t.Fatalf("round trip rejected %q: %v", re, err)
		}
		if again != req {
			t.Fatalf("round trip changed the request: %+v != %+v", again, req)
		}
	})
}
