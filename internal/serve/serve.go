// Package serve is rtrankd's HTTP serving layer: the wire types, handlers
// and error classification behind POST /rank, GET /healthz, GET /v1/epoch,
// POST /v1/edges and GET /metrics. It lives outside cmd/rtrankd so the
// bench spine's bibnet-serve workload and the httptest suites drive the
// exact stack production serves, middleware included.
//
// Three serving rules are encoded here rather than in the handlers' callers:
//
//   - An omitted "epsilon" means the paper's default ε=0.01, while an
//     explicit "epsilon": 0 still demands the exact top-K guarantee (the
//     wire field is a pointer precisely to tell the two apart).
//   - Mutations detach from the client: POST /v1/edges applies its commit
//     (and any fleet redeploy) under a server-scoped context, so a client
//     disconnect mid-commit cannot strand the fleet between epochs.
//   - Engine errors map onto status codes by kind: validation → 400,
//     cluster trouble → 502, deadline → 504, anything else → 500.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
)

// DefaultEpsilon is the ε a /rank request gets when it omits the field: the
// paper's default precision for the 2SBound online search. Send
// "epsilon": 0 to demand the exact guarantee instead.
const DefaultEpsilon = 0.01

// DefaultMutationTimeout bounds a detached mutation (commit + fleet
// redeploy) when Config.MutationTimeout is zero.
const DefaultMutationTimeout = 5 * time.Minute

// maxRequestBytes caps the /rank request body; a ranking request is a few
// labels and scalars, so 1 MiB is generous.
const maxRequestBytes = 1 << 20

// maxMutationBytes caps the /v1/edges request body. An ingestion batch is
// bounded JSON, not a graph upload.
const maxMutationBytes = 64 << 20

// Config carries the serving policy that is not the engine's concern.
type Config struct {
	// Workers is the stripe-worker count reported by /healthz.
	Workers int
	// MutationTimeout bounds one detached mutation application (default
	// DefaultMutationTimeout). It must cover a full commit plus stripe
	// redeploy on the largest expected batch.
	MutationTimeout time.Duration
	// BaseContext scopes detached mutations to the server's lifetime
	// (default context.Background()). Shutting the server down cancels
	// mutations through it.
	BaseContext context.Context
	// DegradeMargin enables deadline-aware degradation: when positive and a
	// /rank request arrives with a context deadline (client timeout or
	// server-side middleware), the engine is told to stop expanding that
	// margin *before* the deadline and certify what it has, so the client
	// gets a 200 with a partial, certified prefix instead of a 504 with
	// nothing. Zero disables the policy (deadline overruns keep failing with
	// 504 as before).
	DegradeMargin time.Duration
}

// Server owns the handler state over one Engine.
type Server struct {
	engine  *roundtriprank.Engine
	metrics *Metrics
	cfg     Config

	// mutateMu serializes /v1/edges: each batch stages its delta against the
	// snapshot it resolved labels on, so two concurrent batches must not
	// interleave between staging and Apply.
	mutateMu sync.Mutex
}

// New returns a Server over engine. metrics may be nil (no /metrics route);
// when given, the engine's gauges are bound to it here.
func New(engine *roundtriprank.Engine, metrics *Metrics, cfg Config) *Server {
	if cfg.MutationTimeout <= 0 {
		cfg.MutationTimeout = DefaultMutationTimeout
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	if metrics != nil {
		metrics.bindEngine(engine)
	}
	return &Server{engine: engine, metrics: metrics, cfg: cfg}
}

// Routes lists the served path labels, for the middleware's cardinality
// allowlist.
func Routes() []string {
	return []string{"/rank", "/healthz", "/metrics", "/v1/epoch", "/v1/edges"}
}

// ExemptRoutes lists the paths that must bypass admission control: health
// probes and metric scrapes have to succeed on a saturated server.
func ExemptRoutes() []string {
	return []string{"/healthz", "/metrics"}
}

// Handler returns the method-scoped mux over the server's routes. Unmatched
// methods get 405 with an Allow header from the mux itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /rank", s.handleRank)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/epoch", s.handleEpoch)
	mux.HandleFunc("POST /v1/edges", s.handleEdges)
	if s.metrics != nil {
		mux.Handle("GET /metrics", s.metrics.Registry().Handler())
	}
	return mux
}

// graph returns the currently served snapshot. Label resolution and result
// labeling go through it; the engine itself pins a snapshot per query.
func (s *Server) graph() *roundtriprank.Graph {
	return s.engine.View().(*roundtriprank.Graph)
}

// rankRequest is the JSON body of POST /rank.
type rankRequest struct {
	// Query lists query node labels; Nodes lists raw node IDs. At least one
	// of the two must be non-empty; they are combined when both are given.
	Query []string               `json:"query,omitempty"`
	Nodes []roundtriprank.NodeID `json:"nodes,omitempty"`
	K     int                    `json:"k"`
	// Method is auto (default), exact, 2sbound, or distributed or
	// 2sbound-remote (both require workers).
	Method string `json:"method,omitempty"`
	// Type restricts results to the named node type (as registered on the
	// graph, e.g. "venue"); empty keeps all types.
	Type string `json:"type,omitempty"`
	// KeepQuery keeps the query nodes in the results (default: excluded).
	KeepQuery bool     `json:"keep_query,omitempty"`
	Alpha     float64  `json:"alpha,omitempty"`
	Beta      *float64 `json:"beta,omitempty"`
	// Epsilon is a pointer so the zero value is distinguishable from an
	// omitted field: omitted means DefaultEpsilon, explicit 0 means exact.
	Epsilon *float64 `json:"epsilon,omitempty"`
	// Budget caps the online search (anytime execution); omitted means
	// unbudgeted. See rankBudget.
	Budget *rankBudget `json:"budget,omitempty"`
}

// rankBudget is the wire form of roundtriprank.Budget: deterministic caps on
// the online search. The wall-clock dimension is intentionally absent from
// the wire — it derives from the request deadline and the server's
// DegradeMargin, so a replayed request body stays deterministic.
type rankBudget struct {
	MaxRounds   int `json:"max_rounds,omitempty"`
	MaxTouched  int `json:"max_touched,omitempty"`
	FrontierCap int `json:"frontier_cap,omitempty"`
}

type rankResult struct {
	Node  roundtriprank.NodeID `json:"node"`
	Label string               `json:"label"`
	Score float64              `json:"score"`
}

type rankResponse struct {
	Results   []rankResult `json:"results"`
	Method    string       `json:"method"`
	Converged bool         `json:"converged"`
	// Degraded reports that a budget (or the deadline-derived soft stop)
	// ended the search early; Results is then best-effort, with the first
	// CertifiedK entries guaranteed to match the exact top-K prefix.
	Degraded bool `json:"degraded,omitempty"`
	// CertifiedK is the length of the result prefix proven correct by the
	// search's live bounds or the exact solves' error bounds; a tie stops it.
	CertifiedK int `json:"certified_k"`
	// AchievedEpsilon is the ε the returned ranking actually satisfies, on
	// the same squared-score scale as the request's epsilon field.
	AchievedEpsilon float64                      `json:"achieved_epsilon,omitempty"`
	Rounds          int                          `json:"rounds,omitempty"`
	Sweeps          int                          `json:"sweeps,omitempty"`
	Rows            *roundtriprank.RowQueryStats `json:"rows,omitempty"`
	ElapsedMS       float64                      `json:"elapsed_ms"`
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var in rankRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	req, err := buildRequest(s.graph(), in)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.applyDegradeMargin(r.Context(), &req)
	resp, err := s.engine.Rank(r.Context(), req)
	if err != nil {
		if r.Context().Err() == context.Canceled {
			// Client went away; nothing useful to write.
			return
		}
		httpError(w, statusForError(err), "%v", err)
		return
	}
	if resp.Degraded && len(resp.Results) == 0 {
		// The budget fired before the search surfaced anything: there is no
		// partial answer worth 200-ing, so report it like the timeout it is.
		httpError(w, http.StatusGatewayTimeout, "query budget exhausted before any result was found")
		return
	}
	out := rankResponse{
		Results:         make([]rankResult, len(resp.Results)),
		Method:          resp.Method.String(),
		Converged:       resp.Converged,
		Degraded:        resp.Degraded,
		CertifiedK:      resp.CertifiedK,
		AchievedEpsilon: resp.AchievedEpsilon,
		Rounds:          resp.Rounds,
		Sweeps:          resp.Sweeps,
		Rows:            resp.Rows,
		ElapsedMS:       float64(resp.Elapsed.Microseconds()) / 1000.0,
	}
	// Labels come from the snapshot current *after* the ranking: it is at
	// least as new as the one the query ran on, and labels are append-only
	// across epochs, so every result ID resolves even if a mutation landed
	// mid-query.
	g := s.graph()
	for i, res := range resp.Results {
		out.Results[i] = rankResult{Node: res.Node, Label: g.Label(res.Node), Score: res.Score}
	}
	writeJSON(w, http.StatusOK, out)
}

// applyDegradeMargin arms the deadline-aware soft stop: when the policy is
// enabled and the request context carries a deadline, the engine budget gets
// FlushMargin so the search stops expanding early enough to certify and
// serialize a partial result before the deadline kills the response. It never
// overrides a margin the request already carries (none can arrive on the
// wire today, but engine-embedding callers may set one).
func (s *Server) applyDegradeMargin(ctx context.Context, req *roundtriprank.Request) {
	if s.cfg.DegradeMargin <= 0 {
		return
	}
	if _, ok := ctx.Deadline(); !ok {
		return
	}
	if req.Budget == nil {
		req.Budget = &roundtriprank.Budget{}
	}
	if req.Budget.FlushMargin == 0 {
		req.Budget.FlushMargin = s.cfg.DegradeMargin
	}
}

// buildRequest translates the wire request into an Engine request, resolving
// labels against the given snapshot.
func buildRequest(g *roundtriprank.Graph, in rankRequest) (roundtriprank.Request, error) {
	var nodes []roundtriprank.NodeID
	for _, label := range in.Query {
		v := g.NodeByLabel(label)
		if v == roundtriprank.NoNode {
			return roundtriprank.Request{}, fmt.Errorf("query node %q not found", label)
		}
		nodes = append(nodes, v)
	}
	nodes = append(nodes, in.Nodes...)
	if len(nodes) == 0 {
		return roundtriprank.Request{}, fmt.Errorf("empty query: provide \"query\" labels or \"nodes\" IDs")
	}
	method, err := roundtriprank.ParseMethod(in.Method)
	if err != nil {
		return roundtriprank.Request{}, err
	}
	filter := &roundtriprank.Filter{ExcludeQuery: !in.KeepQuery}
	if in.Type != "" {
		t, err := cliutil.TypeByName(g, in.Type)
		if err != nil {
			return roundtriprank.Request{}, err
		}
		filter.Types = []roundtriprank.NodeType{t}
	}
	k := in.K
	if k == 0 {
		k = 10
	}
	eps := DefaultEpsilon
	if in.Epsilon != nil {
		eps = *in.Epsilon
	}
	var budget *roundtriprank.Budget
	if in.Budget != nil {
		budget = &roundtriprank.Budget{
			MaxRounds:   in.Budget.MaxRounds,
			MaxTouched:  in.Budget.MaxTouched,
			FrontierCap: in.Budget.FrontierCap,
		}
	}
	return roundtriprank.Request{
		Query:   roundtriprank.MultiNode(nodes...),
		K:       k,
		Method:  method,
		Filter:  filter,
		Alpha:   in.Alpha,
		Beta:    in.Beta,
		Epsilon: eps,
		Budget:  budget,
	}, nil
}

// statusForError maps an engine error onto the response status: caller
// faults → 400, cluster/backend trouble → 502 (retryable through a load
// balancer), an expired per-request deadline → 504, anything else → 500.
func statusForError(err error) int {
	var ve *roundtriprank.ValidationError
	var ce *roundtriprank.ClusterError
	switch {
	case errors.As(err, &ve):
		return http.StatusBadRequest
	case errors.As(err, &ce):
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fs := s.engine.FleetStats()
	g := s.graph()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"nodes":   g.NumNodes(),
		"edges":   g.NumEdges(),
		"epoch":   g.Epoch(),
		"workers": s.cfg.Workers,
		"cluster": map[string]any{"rpcs": fs.RPCs, "retries": fs.Retries},
		"rows": map[string]any{
			"fetched":      fs.RowsFetched,
			"cache_hits":   fs.CacheHits,
			"cache_misses": fs.CacheMisses,
			"evictions":    fs.CacheEvictions,
			"cached":       fs.CachedRows,
		},
	})
}

// handleEpoch reports the serving snapshot, so operators and deploy scripts
// can watch an epoch rollover land.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	g := s.graph()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":       g.Epoch(),
		"fingerprint": fmt.Sprintf("%08x", roundtriprank.GraphFingerprint(g)),
		"nodes":       g.NumNodes(),
		"edges":       g.NumEdges(),
	})
}

// nodeSpec names a node to add: a label plus an optional registered type name.
type nodeSpec struct {
	Type  string `json:"type,omitempty"`
	Label string `json:"label"`
}

// edgeSpec names one edge op by endpoint labels. Weight defaults to 1 on set
// and is ignored on remove; Undirected applies the op in both directions.
type edgeSpec struct {
	From       string  `json:"from"`
	To         string  `json:"to"`
	Weight     float64 `json:"weight,omitempty"`
	Undirected bool    `json:"undirected,omitempty"`
}

// mutateRequest is the JSON body of POST /v1/edges: one atomic ingestion
// batch, applied as a single commit (all ops land in one new epoch, or none).
type mutateRequest struct {
	AddNodes    []nodeSpec `json:"add_nodes,omitempty"`
	Set         []edgeSpec `json:"set,omitempty"`
	Remove      []edgeSpec `json:"remove,omitempty"`
	RemoveNodes []string   `json:"remove_nodes,omitempty"`
}

type mutateResponse struct {
	Epoch           uint64  `json:"epoch"`
	Nodes           int     `json:"nodes"`
	Edges           int     `json:"edges"`
	AddedNodes      int     `json:"added_nodes"`
	SetEdges        int     `json:"set_edges"`
	RemovedEdges    int     `json:"removed_edges"`
	RemovedNodes    int     `json:"removed_nodes"`
	StripesShipped  int     `json:"stripes_shipped"`
	StripesRetagged int     `json:"stripes_retagged"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// handleEdges stages one mutation batch as a Delta and applies it: the engine
// commits a fresh snapshot one epoch later and swaps to it atomically, after
// reconciling any configured worker fleet. In-flight queries are unaffected
// (they finish on their epoch).
//
// The Apply runs under a server-scoped context, NOT the request context: once
// a batch starts committing, a client disconnect must not cancel the fleet
// redeploy halfway through stripe shipping. The commit completes (or fails)
// coherently; the disconnected client simply never reads the response.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	var in mutateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutationBytes)).Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(in.AddNodes) == 0 && len(in.Set) == 0 && len(in.Remove) == 0 && len(in.RemoveNodes) == 0 {
		httpError(w, http.StatusBadRequest, "empty mutation: provide add_nodes, set, remove or remove_nodes")
		return
	}
	start := time.Now()
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()
	d, err := s.buildDelta(in)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(s.cfg.BaseContext, s.cfg.MutationTimeout)
	defer cancel()
	res, err := s.engine.Apply(ctx, d)
	if err != nil {
		httpError(w, statusForError(err), "%v", err)
		return
	}
	an, se, re, rn := d.Ops()
	writeJSON(w, http.StatusOK, mutateResponse{
		Epoch:           res.Epoch,
		Nodes:           res.Graph.NumNodes(),
		Edges:           res.Graph.NumEdges(),
		AddedNodes:      an,
		SetEdges:        se,
		RemovedEdges:    re,
		RemovedNodes:    rn,
		StripesShipped:  res.StripesShipped,
		StripesRetagged: res.StripesRetagged,
		ElapsedMS:       float64(time.Since(start).Microseconds()) / 1000.0,
	})
}

// buildDelta translates a wire mutation batch into a staged Delta against the
// current snapshot. Caller holds mutateMu.
func (s *Server) buildDelta(in mutateRequest) (*roundtriprank.Delta, error) {
	g := s.graph()
	d := roundtriprank.NewDelta(g)
	for _, ns := range in.AddNodes {
		if ns.Label == "" {
			return nil, fmt.Errorf("add_nodes entry is missing a label")
		}
		var t roundtriprank.NodeType
		if ns.Type != "" {
			var err error
			if t, err = cliutil.TypeByName(g, ns.Type); err != nil {
				return nil, err
			}
		}
		d.AddNode(t, ns.Label)
	}
	node := func(label string) (roundtriprank.NodeID, error) {
		v := d.NodeByLabel(label)
		if v == roundtriprank.NoNode {
			return v, fmt.Errorf("node %q not found (add it via add_nodes first)", label)
		}
		return v, nil
	}
	for _, es := range in.Set {
		from, err := node(es.From)
		if err != nil {
			return nil, err
		}
		to, err := node(es.To)
		if err != nil {
			return nil, err
		}
		w := es.Weight
		if w == 0 {
			w = 1
		}
		if es.Undirected {
			err = d.SetUndirectedEdge(from, to, w)
		} else {
			err = d.SetEdge(from, to, w)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, es := range in.Remove {
		from, err := node(es.From)
		if err != nil {
			return nil, err
		}
		to, err := node(es.To)
		if err != nil {
			return nil, err
		}
		if es.Undirected {
			err = d.RemoveUndirectedEdge(from, to)
		} else {
			err = d.RemoveEdge(from, to)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, label := range in.RemoveNodes {
		v, err := node(label)
		if err != nil {
			return nil, err
		}
		if err := d.RemoveNode(v); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
