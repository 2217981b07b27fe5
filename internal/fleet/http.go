package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Registration/heartbeat wire protocol, mounted on the coordinator daemon
// (see docs/API.md):
//
//	POST /v1/register   {"id": "...", "addr": "http://..."} → 200 {"ok":true, ...}
//	POST /v1/heartbeat  {"id": "..."}                       → 200, or 404 when
//	                    the member is unknown (evicted, or the coordinator
//	                    restarted) — the worker re-registers.
//	GET  /v1/fleet      membership snapshot (states, misses, placement)
//
// Bodies are strict JSON: unknown fields, oversized payloads, and malformed
// identities are rejected with 400 (see DecodeRegister, which is fuzzed).

// MaxRegisterBytes caps a registration or heartbeat body.
const MaxRegisterBytes = 4 << 10

// maxIDLen bounds member identities; IDs are metrics labels and map keys, so
// unbounded attacker-chosen strings are a memory grief vector.
const maxIDLen = 128

// RegisterRequest is the body of POST /v1/register. Heartbeats reuse the
// shape with Addr empty.
type RegisterRequest struct {
	// ID is the worker's stable self-chosen identity.
	ID string `json:"id"`
	// Addr is the worker's wire-protocol base URL, as reachable from the
	// coordinator.
	Addr string `json:"addr,omitempty"`
}

// DecodeRegister parses and validates a registration body: strict JSON (no
// unknown fields, no trailing garbage), a non-empty printable ID within
// maxIDLen, and — when present — an http(s) URL for Addr. It is the fuzzed
// entry point of the membership wire surface.
func DecodeRegister(raw []byte) (RegisterRequest, error) {
	var req RegisterRequest
	if len(raw) > MaxRegisterBytes {
		return req, fmt.Errorf("fleet: register body is %d bytes, cap is %d", len(raw), MaxRegisterBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return RegisterRequest{}, fmt.Errorf("fleet: decode register: %w", err)
	}
	if dec.More() {
		return RegisterRequest{}, fmt.Errorf("fleet: register body has trailing data")
	}
	if req.ID == "" {
		return RegisterRequest{}, fmt.Errorf("fleet: register needs a non-empty id")
	}
	if len(req.ID) > maxIDLen {
		return RegisterRequest{}, fmt.Errorf("fleet: id is %d bytes, cap is %d", len(req.ID), maxIDLen)
	}
	for _, r := range req.ID {
		if r < 0x21 || r > 0x7e {
			return RegisterRequest{}, fmt.Errorf("fleet: id contains non-printable or space character %q", r)
		}
	}
	if req.Addr != "" {
		u, err := url.Parse(req.Addr)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return RegisterRequest{}, fmt.Errorf("fleet: addr %q is not an http(s) URL", req.Addr)
		}
	}
	return req, nil
}

// memberJSON is the /v1/fleet representation of one member.
type memberJSON struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Misses   int    `json:"misses"`
	Draining bool   `json:"draining,omitempty"`
}

// Handler returns the membership endpoints, for mounting on the coordinator
// daemon's mux. Registration and state changes bump the table generation;
// the daemon's reconcile loop picks them up on its next tick.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", m.handleRegister)
	mux.HandleFunc("POST /v1/heartbeat", m.handleHeartbeat)
	mux.HandleFunc("POST /v1/drain", m.handleDrain)
	mux.HandleFunc("GET /v1/fleet", m.handleFleet)
	return mux
}

func fleetJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func fleetError(rw http.ResponseWriter, status int, format string, args ...any) {
	fleetJSON(rw, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func readRegister(rw http.ResponseWriter, r *http.Request) (RegisterRequest, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, MaxRegisterBytes+1))
	if err != nil {
		fleetError(rw, http.StatusBadRequest, "fleet: read body: %v", err)
		return RegisterRequest{}, false
	}
	req, err := DecodeRegister(raw)
	if err != nil {
		fleetError(rw, http.StatusBadRequest, "%v", err)
		return RegisterRequest{}, false
	}
	return req, true
}

func (m *Manager) handleRegister(rw http.ResponseWriter, r *http.Request) {
	req, ok := readRegister(rw, r)
	if !ok {
		return
	}
	if req.Addr == "" {
		fleetError(rw, http.StatusBadRequest, "fleet: register needs an addr")
		return
	}
	m.table.Register(req.ID, req.Addr)
	fleetJSON(rw, http.StatusOK, map[string]any{
		"ok":          true,
		"replication": m.opts.Replication,
		"stripes":     m.opts.Stripes,
	})
}

func (m *Manager) handleHeartbeat(rw http.ResponseWriter, r *http.Request) {
	req, ok := readRegister(rw, r)
	if !ok {
		return
	}
	if !m.table.Heartbeat(req.ID) {
		fleetError(rw, http.StatusNotFound, "fleet: unknown member %q, re-register", req.ID)
		return
	}
	fleetJSON(rw, http.StatusOK, map[string]any{"ok": true})
}

func (m *Manager) handleDrain(rw http.ResponseWriter, r *http.Request) {
	req, ok := readRegister(rw, r)
	if !ok {
		return
	}
	if !m.table.Drain(req.ID) {
		fleetError(rw, http.StatusNotFound, "fleet: unknown member %q", req.ID)
		return
	}
	fleetJSON(rw, http.StatusOK, map[string]any{"ok": true, "draining": req.ID})
}

func (m *Manager) handleFleet(rw http.ResponseWriter, r *http.Request) {
	members := m.table.Members()
	out := make([]memberJSON, 0, len(members))
	for _, mem := range members {
		out = append(out, memberJSON{
			ID: mem.ID, Addr: mem.Addr, State: mem.State.String(),
			Misses: mem.Misses, Draining: mem.Draining,
		})
	}
	st := m.table.Stats()
	fleetJSON(rw, http.StatusOK, map[string]any{
		"members":     out,
		"alive":       st.Alive,
		"suspect":     st.Suspect,
		"dead":        st.Dead,
		"draining":    st.Draining,
		"replication": m.opts.Replication,
		"placement":   m.Placement(),
	})
}

// Registrar is the worker-side client of the membership protocol: it
// registers with the coordinator and heartbeats until the context ends,
// re-registering whenever the coordinator forgets it (eviction after an
// outage, or a coordinator restart). Each attempt is bounded by one Interval,
// so a coordinator that accepts the connection and never answers costs one
// beat, not every later one.
type Registrar struct {
	// Coordinator is the coordinator daemon's base URL.
	Coordinator string
	// ID is this worker's stable identity.
	ID string
	// Addr is this worker's advertised wire-protocol base URL.
	Addr string
	// Interval is the heartbeat period (default 1s), and the deadline of
	// each registration or heartbeat attempt.
	Interval time.Duration
	// OnError, when set, observes failed registration/heartbeat attempts
	// (for logging); the loop itself keeps retrying regardless.
	OnError func(error)
}

func (reg *Registrar) interval() time.Duration {
	if reg.Interval <= 0 {
		return time.Second
	}
	return reg.Interval
}

// post sends one attempt, bounded by one Interval.
func (reg *Registrar) post(ctx context.Context, path string, body RegisterRequest) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, reg.interval())
	defer cancel()
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	url := strings.TrimRight(reg.Coordinator, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
	return resp.StatusCode, nil
}

// Register performs one registration attempt, bounded by one Interval.
func (reg *Registrar) Register(ctx context.Context) error {
	status, err := reg.post(ctx, "/v1/register", RegisterRequest{ID: reg.ID, Addr: reg.Addr})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("fleet: register %s: HTTP %d", reg.Coordinator, status)
	}
	return nil
}

// Run registers and then heartbeats until ctx ends. Failures, timeouts
// among them, are reported to OnError and retried on the next beat; a 404
// heartbeat triggers re-registration. It never returns before ctx is done.
func (reg *Registrar) Run(ctx context.Context) {
	report := func(err error) {
		if reg.OnError != nil && err != nil {
			reg.OnError(err)
		}
	}
	report(reg.Register(ctx))
	ticker := time.NewTicker(reg.interval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			status, err := reg.post(ctx, "/v1/heartbeat", RegisterRequest{ID: reg.ID})
			switch {
			case err != nil:
				report(err)
			case status == http.StatusNotFound:
				report(reg.Register(ctx))
			case status != http.StatusOK:
				report(fmt.Errorf("fleet: heartbeat %s: HTTP %d", reg.Coordinator, status))
			}
		}
	}
}
