package roundtriprank

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roundtriprank/internal/core"
	"roundtriprank/internal/distributed"
	"roundtriprank/internal/fan"
	"roundtriprank/internal/fleet"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/lru"
	"roundtriprank/internal/rowserve"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

// methodKind is the algorithm family of a Method: the exact full-vector solves
// of Sect. IV or the online 2SBound search of Sect. V-A. Where the rows live —
// the local view or the worker fleet, Sect. V-B — is Method.fleet, orthogonal
// to the family.
type methodKind int

const (
	methodAuto methodKind = iota
	methodExact
	methodOnline
)

// Method selects how a Request is executed: an algorithm family and where
// its rows live. The zero value is Auto.
type Method struct {
	kind  methodKind
	fleet bool // run against the engine's worker fleet, not the local view
}

// The built-in execution methods.
var (
	// Auto lets the engine plan: exact full-vector solves for small in-memory
	// graphs, the online 2SBound search otherwise (large or remote graphs).
	Auto = Method{kind: methodAuto}
	// Exact runs the iterative F-Rank/T-Rank solvers over the whole graph.
	Exact = Method{kind: methodExact}
	// TwoSBound runs the online branch-and-bound top-K search (Algorithm 1).
	// On every layout the search executes on pooled flat scratch state —
	// dense generation-stamped arrays recycled across queries — so
	// steady-state serving performs a small constant number of allocations
	// per query; each concurrently executing query holds one O(NumNodes)
	// scratch instance (see docs/TUNING.md for sizing).
	TwoSBound = Method{kind: methodOnline}
	// Distributed runs the exact solvers across the engine's worker cluster
	// (configured with WithWorkers): the coordinator fans each power
	// iteration out to the stripe workers and merges the partial vectors into
	// the same top-K path the local exact solver uses. Scores are
	// bit-identical to Exact.
	Distributed = Method{kind: methodExact, fleet: true}
	// TwoSBoundRemote runs the online 2SBound search against the engine's
	// worker cluster (configured with WithWorkers) without a local copy of
	// the graph: the searcher streams only the CSR rows it touches from the
	// stripe workers through the engine's row cache (batched POST /v1/rows
	// fetches, one per stripe per expansion wave). Every row arrives
	// bit-exact from the stripe that owns it, so results are bit-identical
	// to TwoSBound on a local view for any worker count. This is the paper's
	// AP/GP serving architecture: the coordinator's working set is O(rows
	// touched), never O(edges).
	TwoSBoundRemote = Method{kind: methodOnline, fleet: true}
)

// String names the method.
func (m Method) String() string {
	switch {
	case m.kind == methodAuto:
		return "auto"
	case m.kind == methodExact && m.fleet:
		return "distributed"
	case m.kind == methodExact:
		return "exact"
	case m.fleet:
		return "2SBound-remote"
	default:
		return "2SBound"
	}
}

// ParseMethod parses a method name (case-insensitive) as printed by
// Method.String: "auto" (or empty), "exact", "distributed", "2sbound" or
// "2sbound-remote" (or "remote"). The baseline bound schemes of Sect. VI-B
// (G+S, Gupta, Sarkar) are not serving methods; internal/topk runs them for
// the efficiency figures.
func ParseMethod(name string) (Method, error) {
	switch strings.ToLower(name) {
	case "", "auto":
		return Auto, nil
	case "exact":
		return Exact, nil
	case "distributed":
		return Distributed, nil
	case "2sbound":
		return TwoSBound, nil
	case "2sbound-remote", "remote":
		return TwoSBoundRemote, nil
	default:
		return Method{}, invalidf("roundtriprank: unknown method %q", name)
	}
}

// ValidationError wraps a request-validation failure: the caller's Request
// (or Delta) was malformed — a non-positive K, an out-of-range parameter, a
// query node the view does not have, a stale mutation. It distinguishes
// caller mistakes from internal faults, so servers can answer 4xx instead
// of 5xx; unwrap with errors.As. Its counterpart for backend trouble is
// ClusterError.
type ValidationError struct {
	Err error
}

// Error implements error.
func (e *ValidationError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying validation failure.
func (e *ValidationError) Unwrap() error { return e.Err }

// invalidf builds a ValidationError from a format string.
func invalidf(format string, args ...any) error {
	return &ValidationError{Err: fmt.Errorf(format, args...)}
}

// QueryStat describes one executed ranking plan, delivered to the
// WithQueryStatsHook callback when the execution finishes: the resolved
// method (Auto already planned), the wall-clock execution time, and the
// outcome. Requests that fail validation never reach the hook — they have
// no resolved method; a serving layer counts those at its own boundary.
type QueryStat struct {
	// Method is the execution method actually used.
	Method Method
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// Err is nil on success; context.Canceled / DeadlineExceeded indicate a
	// cancelled query, a ClusterError backend trouble.
	Err error
	// Response is the response the caller receives, nil when Err is non-nil:
	// its Degraded, CertifiedK, Rounds and Sweeps say what the execution did.
	// The caller owns it; a hook reads it and never writes.
	Response *Response
}

// WithQueryStatsHook installs a callback invoked after every executed Rank
// (and RankBatch) plan with its method, duration and outcome — the feed for
// a serving layer's per-method latency histograms and outcome counters. The
// hook runs synchronously on the query goroutine, so it must be fast and
// must not block; it may be invoked concurrently.
func WithQueryStatsHook(fn func(QueryStat)) Option {
	return func(e *Engine) error {
		if fn == nil {
			return fmt.Errorf("roundtriprank: WithQueryStatsHook needs a non-nil callback")
		}
		e.statsHook = fn
		return nil
	}
}

// Filter declaratively restricts the result set of a Request. It compiles to
// the same keep-predicate on both the exact and the online path, so filtered
// queries return consistent top-K sets regardless of execution method (both
// paths rank exactly the round-trip-reachable nodes the filter admits).
type Filter struct {
	// Types, when non-empty, keeps only nodes whose type is listed (the
	// paper's "find authors for this paper" target-type restriction).
	Types []NodeType
	// Exclude drops the listed nodes from the results.
	Exclude []NodeID
	// ExcludeQuery drops the query nodes themselves, the usual setting since
	// the query trivially ranks first under any round-trip measure.
	ExcludeQuery bool
}

// Budget bounds the work an online-method Request may spend before returning
// a best-effort, certified partial result (Response.Degraded, CertifiedK,
// AchievedEpsilon) instead of running to convergence; a nil Request.Budget
// keeps the run-to-convergence behavior. The exact and distributed methods
// ignore it: they always compute the full answer. See internal/topk for the
// fields.
type Budget = topk.Budget

// Request is a single ranking query against an Engine, and the one place a
// query's ranking is configured. Zero-valued fields take the defaults of the
// paper's experiments (α = 0.25, β = 0.5) and a tolerance of 1e-9.
type Request struct {
	// Query is the distribution over query nodes (SingleNode / MultiNode).
	Query Query
	// K is the number of results wanted. Required, must be positive.
	K int
	// Method selects the execution path; the zero value is Auto.
	Method Method
	// Filter optionally restricts the result set; nil keeps every node.
	Filter *Filter
	// Alpha is the teleport probability of the geometric walks, in (0, 1);
	// zero means 0.25.
	Alpha float64
	// Beta is the specificity bias of RoundTripRank+ in [0, 1]; nil means 0.5,
	// the balanced RoundTripRank (a pointer because 0, pure importance, is a
	// meaningful value; BetaFromSurfers derives one from Definition 3).
	Beta *float64
	// Epsilon is the approximation slack of the online search; zero demands
	// the exact top K. Ignored by the exact path.
	Epsilon float64
	// Tolerance is the L1 convergence tolerance of the exact solvers; zero
	// means 1e-9. Ignored by the online path.
	Tolerance float64
	// Budget, when non-nil, bounds the online search's work and switches it
	// into anytime mode; see Budget. Ignored by exact-family methods.
	Budget *Budget
}

// Float64 returns a pointer to v, for Request.Beta.
func Float64(v float64) *float64 { return &v }

// Response is the outcome of one Engine.Rank call.
type Response struct {
	// Results lists the ranked nodes, best first. Scores are on the
	// f^(1−β)·t^β scale on every execution path (the online search's
	// squared-scale lower bounds are normalized), and zero-score nodes —
	// nodes with no round trip through them — are never returned, so the
	// result set does not change shape when Auto switches paths.
	Results []Result
	// Method is the execution method actually used (Auto resolved).
	Method Method
	// Converged reports whether the ε-relaxed top-K conditions were met; on
	// the exact path, whether both solves stopped below the tolerance.
	Converged bool
	// Degraded reports the online search stopped on a budget (or the round
	// backstop a tie at ε = 0 can reach) with work remaining: results are
	// best-effort, qualified by CertifiedK and AchievedEpsilon. Always false on
	// the exact path and on converged or closed (exhausted) online queries.
	Degraded bool
	// CertifiedK is the length of the leading prefix of Results proven exact
	// by score intervals — the online search's bounds at termination, or the
	// exact solves' scores within their error bounds: each certified position
	// strictly dominates every node ranked below it. A tie stops the count.
	CertifiedK int
	// AchievedEpsilon is the same intervals' residual gap: the smallest ε the
	// ranking satisfies at termination (0 when they separate it). Converged
	// responses report at most the requested epsilon; degraded ones report
	// how far the budget let them get. Note it is on the searcher's squared
	// score scale, like Request.Epsilon.
	AchievedEpsilon float64
	// Rounds is the number of expansion rounds of the online search (zero on
	// the exact path).
	Rounds int
	// Sweeps is the number of Stage-II refinement sweeps the online search
	// ran, over both neighborhoods and all rounds (zero on the exact path).
	Sweeps int
	// FSeen, TSeen and RSeen are the final neighborhood sizes |Sf|, |St| and
	// |Sf ∩ St| of the online search (zero on the exact path).
	FSeen, TSeen, RSeen int
	// Rows is the row-serving footprint of a TwoSBoundRemote query — rows
	// fetched over the network, row-fetch RPCs issued, row-cache hits and
	// misses. Nil on every other path. A repeat of a fully cached query shows
	// RPCs == 0.
	Rows *RowQueryStats
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// DefaultExactLimit is the graph size up to which Auto plans the exact path:
// a full-vector solve over tens of thousands of nodes is cheaper than the
// online search's bookkeeping, while beyond it 2SBound touches only the
// query's neighborhood. It is not configurable; a Request that wants a
// particular path names it in Method.
const DefaultExactLimit = 50_000

// DefaultVectorCacheSize is the default capacity (in single-node vector
// pairs) of the engine's score-vector cache used by RankBatch.
const DefaultVectorCacheSize = 64

// snapshot is one immutable epoch of the engine's serving state, and the one
// place a graph becomes a seam: it hands out the two things the two algorithm
// families read — gatherer, the walk.Gatherer of the exact solves, and rows,
// the graph.Rows of the online search — over the local view's layout or over
// the worker fleet. Apply swaps the engine's snapshot pointer atomically;
// queries capture the snapshot once at plan time and run on it to completion,
// so in-flight queries finish on their epoch while new queries see the next.
type snapshot struct {
	// view is the graph as the caller handed it over, in whichever of the
	// three layouts: what View returns and what every local solve reads.
	view View
	// g is the view when it is a *Graph, nil for the bare layouts: resolved
	// once, here, for what only a built graph has — Auto's exact plan, node
	// types for filters, a base for Apply.
	g     *Graph
	fleet lazyFleet
}

// lazyFleet is a snapshot's handle on the engine's worker fleet: one
// rowserve.RemoteCSR, whose row sessions serve the online search and whose
// embedded distributed.Fleet is the gather of the exact solves — one handshake
// per epoch for both. It is connected by the first query that needs it, so
// engine construction (and Apply) never block on the network. A failed connect
// is not cached, so a query issued after the workers come up succeeds; each
// snapshot has its own handle, so after an Apply the next query connects
// afresh and validates the workers against the new epoch. Readers Load the
// pointer and never take the mutex, which serializes this snapshot's connect
// only: a stale epoch's slow connect never blocks the next epoch's first
// query. The RemoteCSR reads through the engine's shared row cache, whose
// content-fingerprint keys carry unchanged stripes' rows across an Apply
// rollover and strand the changed stripes' rows (see internal/rowserve).
type lazyFleet struct {
	atomic.Pointer[rowserve.RemoteCSR]
	mu      sync.Mutex
	workers []distributed.Transport
	cache   *rowserve.Cache
}

// newSnapshot wraps a view in a snapshot.
func (e *Engine) newSnapshot(view View) *snapshot {
	s := &snapshot{view: view, fleet: lazyFleet{workers: e.workers, cache: e.rowCache}}
	s.g, _ = view.(*Graph)
	return s
}

// connect returns the snapshot's fleet handle, dialing and validating the
// workers on first use.
func (s *snapshot) connect(ctx context.Context) (*rowserve.RemoteCSR, error) {
	l := &s.fleet
	if r := l.Load(); r != nil {
		return r, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r := l.Load(); r != nil {
		return r, nil
	}
	r, err := rowserve.Connect(ctx, l.workers, &rowserve.Options{Cache: l.cache})
	if err == nil {
		err = s.validateFleet(r.Fleet)
	}
	if err != nil {
		return nil, err
	}
	l.Store(r)
	return r, nil
}

// validateFleet checks the fleet a connect reached against the snapshot.
func (s *snapshot) validateFleet(f *distributed.Fleet) error {
	if f.NumNodes() != s.view.NumNodes() {
		return fmt.Errorf("roundtriprank: workers serve a %d-node graph, the engine view has %d nodes",
			f.NumNodes(), s.view.NumNodes())
	}
	// The workers must have been striped from the very same graph: equal node
	// counts with different adjacency would return plausible-looking but wrong
	// rankings. The fingerprint folds the epoch in, so a cluster still serving
	// the previous epoch's stripes is rejected here until it is redeployed.
	if local := s.view.Fingerprint(); local != f.GraphFingerprint() {
		return fmt.Errorf("roundtriprank: workers were striped from a different graph (fingerprint %08x epoch %d, engine view has %08x epoch %d)",
			f.GraphFingerprint(), f.Epoch(), local, s.view.Epoch())
	}
	return nil
}

// gatherer returns the row gather the exact family solves over: the fleet
// itself, or the local view's in-process gather on GOMAXPROCS goroutines.
func (s *snapshot) gatherer(ctx context.Context, fleet bool) (walk.Gatherer, error) {
	if fleet {
		r, err := s.connect(ctx)
		if err != nil {
			return nil, err
		}
		return r.Fleet, nil
	}
	return walk.Local(s.view, 0), nil
}

// rows returns the rows the online family searches over: a per-query session
// streaming from the fleet through the row cache, or the local view's own —
// the view itself over flat arrays, a decoding session over packed ones.
func (s *snapshot) rows(ctx context.Context, fleet bool) (graph.Rows, error) {
	if fleet {
		r, err := s.connect(ctx)
		if err != nil {
			return nil, err
		}
		return r.Session(ctx), nil
	}
	return s.view.NewRows(), nil
}

// Engine executes ranking requests over one graph view: plan (validate, resolve
// Auto, pin the current snapshot), then execute one of two algorithm families —
// exact solves or the online search — over the seam the snapshot hands out for
// the method's locality, the local view or the worker fleet. It is safe for
// concurrent use: per-query state lives in the request execution, the current
// snapshot is read through an atomic pointer, and the shared vector cache
// synchronizes internally.
type Engine struct {
	snap  atomic.Pointer[snapshot]
	cache *lru.Cache[vecKey, vecPair] // the single-node vector cache; nil when disabled
	// statsHook, when set, observes every executed plan (WithQueryStatsHook).
	statsHook func(QueryStat)

	// workers are the stripe transports of the fleet methods (Distributed,
	// TwoSBoundRemote); each snapshot connects to them lazily (lazyFleet).
	workers []distributed.Transport
	// fleetMgr, when set (WithFleet), self-organizes the workers: they are
	// the manager's per-stripe replica groups, and Apply reconciles
	// membership/placement instead of the static RedeployStripes walk.
	fleetMgr *fleet.Manager
	// rowCache is the engine-wide row cache of the TwoSBoundRemote method,
	// shared by every epoch's fleet handle (sized by WithRowCacheRows).
	rowCache *rowserve.Cache

	// applyMu serializes Apply: commits are rare and strictly ordered.
	applyMu sync.Mutex
}

// NewEngine creates an Engine over the given graph view, deployed as the
// options say. The view is one of the three layouts — a *Graph, the flat
// arrays of graph.Compact or Graph.Without, a graph.Packed — and is served in
// place.
func NewEngine(view View, opts ...Option) (*Engine, error) {
	if view == nil || view.NumNodes() == 0 {
		return nil, fmt.Errorf("roundtriprank: empty graph")
	}
	e := &Engine{
		cache:    lru.New[vecKey, vecPair](DefaultVectorCacheSize),
		rowCache: rowserve.NewCache(0),
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	e.snap.Store(e.newSnapshot(view))
	return e, nil
}

// vecKey identifies one cached pair of single-node score vectors. Alpha and
// tolerance are part of the key because each request sets its own and they
// change the vectors; beta is not, because it only affects the combination
// step. The snapshot epoch is, because a Commit changes the graph the vectors
// were solved on: entries of different epochs never alias, so a query that
// started before an Apply keeps reading vectors consistent with its own
// snapshot.
type vecKey struct {
	node       NodeID
	epoch      uint64
	alpha, tol float64
}

// vecPair is one node's exact F-Rank and T-Rank vectors, their walk.Bound
// errors and whether both converged: by the Linearity Theorem building blocks
// for any query distribution, shared across requests and batches — read only.
type vecPair struct {
	f, t       []float64
	fErr, tErr float64
	converged  bool
}

// CacheStats reports the cumulative hit and miss counts of the engine's
// single-node vector cache and its current number of completed entries (the
// counting rules are internal/lru's). All zeros when the cache is disabled.
func (e *Engine) CacheStats() (hits, misses uint64, size int) {
	if e.cache == nil {
		return 0, 0, 0
	}
	h, m, _ := e.cache.Stats()
	return uint64(h), uint64(m), e.cache.Len()
}

// View returns the graph view of the engine's current snapshot. After an
// Apply it returns the new snapshot's view; queries planned earlier keep
// executing on the view they captured.
func (e *Engine) View() View { return e.snap.Load().view }

// Epoch returns the epoch of the engine's current snapshot: the Epoch of the
// served *Graph, bumped by every Apply (zero for unversioned views).
func (e *Engine) Epoch() uint64 { return e.snap.Load().view.Epoch() }

// plan is a validated, default-resolved request ready to execute. It pins the
// snapshot it was planned against, so the execution is immune to concurrent
// Apply calls.
type plan struct {
	snap    *snapshot
	query   walk.Query // normalized
	k       int
	method  Method // resolved: Exact or an online method
	params  core.Params
	epsilon float64
	keep    func(NodeID) bool
	budget  *Budget
}

// plan validates the request and resolves defaults and the Auto method.
// Every validation failure is wrapped in ValidationError, so callers can
// distinguish caller mistakes from execution faults.
func (e *Engine) plan(req Request) (*plan, error) {
	if req.K <= 0 {
		return nil, invalidf("roundtriprank: K must be positive, got %d", req.K)
	}
	nq, err := req.Query.Normalize()
	if err != nil {
		return nil, &ValidationError{Err: fmt.Errorf("roundtriprank: invalid query: %w", err)}
	}
	snap := e.snap.Load()
	n := snap.view.NumNodes()
	for _, v := range nq.Nodes {
		if int(v) < 0 || int(v) >= n {
			return nil, invalidf("roundtriprank: query node %d out of range [0,%d)", v, n)
		}
	}
	p := core.DefaultParams()
	// The range checks are written to fail on NaN, which every ordered
	// comparison lets through and every solver turns into NaN scores.
	if req.Alpha != 0 {
		if err := walk.CheckAlpha(req.Alpha); err != nil {
			return nil, invalidf("roundtriprank: %w", err)
		}
		p.Walk.Alpha = req.Alpha
	}
	if req.Beta != nil {
		if !(*req.Beta >= 0 && *req.Beta <= 1) {
			return nil, invalidf("roundtriprank: beta must be in [0,1], got %g", *req.Beta)
		}
		p.Beta = *req.Beta
	}
	if !(req.Epsilon >= 0) || math.IsInf(req.Epsilon, 1) {
		return nil, invalidf("roundtriprank: epsilon must be finite and non-negative, got %g", req.Epsilon)
	}
	if !(req.Tolerance >= 0) || math.IsInf(req.Tolerance, 1) {
		return nil, invalidf("roundtriprank: tolerance must be finite and non-negative, got %g", req.Tolerance)
	}
	if req.Tolerance > 0 {
		p.Walk.Tol = req.Tolerance
	}
	keep, err := req.Filter.compile(snap.g, nq)
	if err != nil {
		return nil, err
	}
	if b := req.Budget; b != nil {
		if b.MaxRounds < 0 || b.MaxTouched < 0 || b.FrontierCap < 0 || b.FlushMargin < 0 {
			return nil, invalidf("roundtriprank: budget fields must be non-negative, got %+v", *b)
		}
	}
	method := req.Method
	if method.fleet && len(e.workers) == 0 {
		return nil, invalidf("roundtriprank: the %s method needs workers (configure with WithWorkers)", method)
	}
	if method.kind == methodAuto {
		if snap.g != nil && n <= DefaultExactLimit {
			method = Exact
		} else if len(e.workers) > 0 {
			// Too big for a local exact solve and a striped fleet is
			// configured: serve online against the fleet, touching only the
			// query's neighborhood.
			method = TwoSBoundRemote
		} else {
			method = TwoSBound
		}
	}
	return &plan{snap: snap, query: nq, k: req.K, method: method, params: p, epsilon: req.Epsilon, keep: keep, budget: req.Budget}, nil
}

// compile turns the declarative filter into a keep-predicate over node IDs;
// typed is the snapshot's *Graph, nil when it serves a bare layout.
func (f *Filter) compile(typed *Graph, nq walk.Query) (func(NodeID) bool, error) {
	if f == nil {
		return nil, nil
	}
	if len(f.Types) > 0 && typed == nil {
		return nil, invalidf("roundtriprank: filtering by node type requires a typed graph view")
	}
	excluded := make(map[NodeID]bool, len(f.Exclude)+len(nq.Nodes))
	for _, v := range f.Exclude {
		excluded[v] = true
	}
	if f.ExcludeQuery {
		for _, v := range nq.Nodes {
			excluded[v] = true
		}
	}
	types := append([]NodeType(nil), f.Types...)
	return func(v NodeID) bool {
		if excluded[v] {
			return false
		}
		if len(types) == 0 {
			return true
		}
		t := typed.Type(v)
		for _, want := range types {
			if t == want {
				return true
			}
		}
		return false
	}, nil
}

// Rank executes one request and returns the ranked results. Cancelling the
// context aborts the computation within one solver iteration (exact path) or
// one expansion round (online path) and returns ctx.Err().
func (e *Engine) Rank(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := e.plan(req)
	if err != nil {
		return nil, err
	}
	return e.execPlan(ctx, p, nil)
}

// execPlan is the one executor: it runs a validated plan through the arm of
// its algorithm family — exact or online, each over the seam the plan's
// snapshot hands out for the method's locality — stamps the execution time
// and feeds the stats hook. Failures of a fleet method are wrapped in
// ClusterError, so servers report them as backend trouble rather than caller
// mistakes — unless the caller's own context ended, which is not backend
// trouble. Exact plans run as a cached-vector mixture when a cache is given
// (RankBatch) and as one direct solve otherwise (Rank).
func (e *Engine) execPlan(ctx context.Context, p *plan, cache *lru.Cache[vecKey, vecPair]) (*Response, error) {
	start := time.Now()
	var (
		resp *Response
		err  error
	)
	if p.method.kind == methodExact {
		resp, err = p.exact(ctx, cache)
	} else {
		resp, err = p.online(ctx)
	}
	if err != nil && p.method.fleet {
		// The caller's own cancellation is not backend trouble.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		} else {
			err = &ClusterError{Err: err}
		}
	}
	st := QueryStat{Method: p.method, Elapsed: time.Since(start), Err: err}
	if err == nil {
		resp.Elapsed = st.Elapsed
		st.Response = resp
	}
	if e.statsHook != nil {
		e.statsHook(st)
	}
	return resp, err
}

// exact is the exact family's arm: core.Solve over the snapshot's gatherer —
// flat rows, packed rows or the worker fleet, all bit-identical — then the
// combine/top-K tail every exact method shares, so a Distributed response
// equals an Exact one node for node and score for score.
func (p *plan) exact(ctx context.Context, cache *lru.Cache[vecKey, vecPair]) (*Response, error) {
	v, err := p.vectors(ctx, cache)
	if err != nil {
		return nil, err
	}
	return exactResponse(p, v), nil
}

// vectors returns the exact F-Rank and T-Rank vectors of the plan's query: one
// direct solve, or — given a cache — the weighted mixture of its nodes'
// single-node vectors, each solved at most once (Linearity Theorem; see
// RankBatch), whose error bounds mix alike. The snapshot's epoch is part of
// the cache key, so vectors computed against one epoch are never served for
// another; an in-flight query keeps hitting (or repopulating) its own
// epoch's entries even while Apply swaps the engine forward.
func (p *plan) vectors(ctx context.Context, cache *lru.Cache[vecKey, vecPair]) (vecPair, error) {
	wp := p.params.Walk
	solve := func(q walk.Query) (vecPair, error) {
		g, err := p.snap.gatherer(ctx, p.method.fleet)
		if err != nil {
			return vecPair{}, err
		}
		f, t, fb, tb, err := core.Solve(ctx, g, q, wp)
		return vecPair{f, t, fb.Err, tb.Err, fb.Converged && tb.Converged}, err
	}
	if cache == nil {
		return solve(p.query)
	}
	n := p.snap.view.NumNodes()
	mix := vecPair{f: make([]float64, n), t: make([]float64, n), converged: true}
	for j, node := range p.query.Nodes {
		key := vecKey{node: node, epoch: p.snap.view.Epoch(), alpha: wp.Alpha, tol: wp.Tol}
		// The cached slices are shared: read, never written.
		vec, err := cache.Do(ctx, key, func() (vecPair, error) { return solve(walk.SingleNode(node)) })
		if err != nil {
			return vecPair{}, err
		}
		w := p.query.Weights[j]
		for v := range mix.f {
			mix.f[v] += w * vec.f[v]
			mix.t[v] += w * vec.t[v]
		}
		mix.fErr, mix.tErr, mix.converged = mix.fErr+w*vec.fErr, mix.tErr+w*vec.tErr, mix.converged && vec.converged
	}
	return mix, nil
}

// exactResponse is the tail of every exact-family method: rank the combined
// scores, trim the zero tail, certify the rest from the solves' error bounds.
func exactResponse(p *plan, v vecPair) *Response {
	top := trimZeroScores(core.TopN(core.Combine(v.f, v.t, p.params.Beta), p.k, p.keep))
	certK, achieved := topk.CertifyExact(top, v.f, v.t, v.fErr, v.tErr, p.params.Beta, p.keep)
	return &Response{Results: toResults(top), Method: p.method, Converged: v.converged, CertifiedK: certK, AchievedEpsilon: achieved}
}

// trimZeroScores cuts the zero-score tail of a descending ranking: a zero
// RoundTripRank+ score means no round trip passes through the node, and the
// online path never surfaces such nodes, so dropping them keeps the exact and
// online result sets consistent.
func trimZeroScores(in []core.Ranked) []core.Ranked {
	for i, r := range in {
		if r.Score <= 0 {
			return in[:i]
		}
	}
	return in
}

// online is the online family's arm: the pooled 2SBound searcher over the
// snapshot's rows — the local view, or a session streaming only the rows the
// search touches from the stripe workers through the row cache. Every row
// arrives bit-exact whichever it is, so the responses are bit-identical; a
// fleet response additionally carries the query's row-serving footprint in
// Rows. The scratch pool is process-wide: queries racing an Apply simply
// re-size the recycled arrays to their own snapshot's NumNodes on
// acquisition, so epoch swaps need no pool coordination.
func (p *plan) online(ctx context.Context) (*Response, error) {
	rows, err := p.snap.rows(ctx, p.method.fleet)
	if err != nil {
		return nil, err
	}
	res, err := topk.TopKRows(ctx, rows, p.query, topk.Options{
		K:       p.k,
		Epsilon: p.epsilon,
		Alpha:   p.params.Walk.Alpha,
		Beta:    p.params.Beta,
		Scheme:  topk.Scheme2SBound,
		Keep:    p.keep,
		Budget:  p.budget,
	})
	if err != nil {
		return nil, err
	}
	resp := onlineResponse(p, res)
	if sess, ok := rows.(*rowserve.Session); ok {
		st := sess.Stats()
		resp.Rows = &st
	}
	return resp, nil
}

// onlineResponse assembles the response of an online search. The search ranks
// by lower bounds on the squared-scale measure f^(2(1−β))·t^(2β); the square
// root maps them (order-preserving) onto the exact path's f^(1−β)·t^β scale so
// scores are comparable across methods. Zero-lower-bound candidates (possible
// on a non-converged best-effort result) are trimmed, matching the exact
// path's contract.
func onlineResponse(p *plan, res *topk.Result) *Response {
	results := toResults(trimZeroScores(res.TopK))
	for i := range results {
		results[i].Score = math.Sqrt(results[i].Score)
	}
	return &Response{
		Results:   results,
		Method:    p.method,
		Converged: res.Converged,
		Degraded:  res.Degraded,
		// Certified positions always have strictly positive lower bounds, so
		// the zero-score trim never cuts into the certified prefix; the clamp
		// only guards the public CertifiedK ≤ len(Results) invariant.
		CertifiedK:      min(res.CertifiedK, len(results)),
		AchievedEpsilon: res.AchievedEpsilon,
		Rounds:          res.Rounds,
		Sweeps:          res.Sweeps,
		FSeen:           res.FSeen,
		TSeen:           res.TSeen,
		RSeen:           res.RSeen,
	}
}

// RankBatch executes a batch of requests concurrently, sharing work across
// the exact-family requests (Exact and Distributed alike — their vectors are
// bit-identical): by the Linearity Theorem (Jeh & Widom), the F-Rank
// and T-Rank vectors of any query distribution are the query-weighted
// mixtures of the single-node vectors, so the batch solves each distinct
// (query node, α, tolerance) pair once — through the engine's LRU vector
// cache, which also persists across batches — and combines per request.
// Online-family requests run independently on the same bounded worker set,
// sized by GOMAXPROCS. Every plan goes through the same executor as Rank, so
// each reaches the WithQueryStatsHook callback.
//
// The whole batch is validated before any work starts. The first execution
// error cancels the remaining requests and aborts the batch, reporting the
// lowest-indexed request that failed of its own accord; cancelling ctx does
// the same and returns ctx.Err().
func (e *Engine) RankBatch(ctx context.Context, reqs []Request) ([]*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plans := make([]*plan, len(reqs))
	for i, req := range reqs {
		p, err := e.plan(req)
		if err != nil {
			return nil, fmt.Errorf("roundtriprank: request %d: %w", i, err)
		}
		plans[i] = p
	}

	// With the engine cache disabled, a batch-local cache (it evicts nothing)
	// still guarantees each distinct (node, α, tol) pair is solved once within
	// this batch.
	cache := e.cache
	if cache == nil {
		cache = lru.New[vecKey, vecPair](math.MaxInt)
	}

	out := make([]*Response, len(reqs))
	err := fan.Do(ctx, len(plans), runtime.GOMAXPROCS(0), func(ctx context.Context, i int) error {
		resp, err := e.execPlan(ctx, plans[i], cache)
		if err != nil {
			return fmt.Errorf("roundtriprank: request %d: %w", i, err)
		}
		out[i] = resp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyResult reports the outcome of one Engine.Apply: the committed graph
// snapshot and, when the engine fronts a worker cluster, how the redeploy
// reconciled the fleet (full stripe ships vs. cheap retags of stripes the
// commit did not touch).
type ApplyResult struct {
	// Graph is the committed snapshot the engine now serves.
	Graph *Graph
	// Epoch is the new serving epoch (Graph.Epoch()).
	Epoch uint64
	// StripesShipped and StripesRetagged count the worker reconciliation:
	// shipped stripes had content changed by the commit (or empty/mismatched
	// workers), retagged stripes were identical and only had their graph
	// fingerprint and epoch rebound. Both zero without workers. Under a
	// fleet manager they count per-member placements, not stripes (one
	// stripe on R members can retag R times).
	StripesShipped, StripesRetagged int
	// StripesRemoved counts stripes dropped from members that placement
	// moved them off (fleet engines only).
	StripesRemoved int
}

// Apply commits a staged Delta against the engine's current graph and swaps
// the engine to the resulting snapshot atomically. In-flight queries finish
// on the epoch they were planned against (their snapshot, vector-cache keys
// and coordinator are all pinned); queries planned after Apply returns see
// the new epoch. The vector cache drops every entry from older epochs.
//
// When the engine is configured with workers, Apply first reconciles the
// fleet with the new snapshot — shipping stripes whose content the commit
// changed and retagging the rest — and only then swaps, so a distributed
// query never plans against a graph its cluster does not serve yet. In-flight
// distributed queries of the previous epoch fail their pinned-fingerprint
// check once their worker's stripe moves (a 409/ClusterError); callers
// should retry, which re-plans on the new epoch. See docs/OPERATIONS.md.
//
// Apply calls are serialized; each Delta must have been staged against the
// snapshot it is applied to (stage with NewDelta(engine.View().(*Graph)) and
// apply promptly, or retry on the staleness error).
func (e *Engine) Apply(ctx context.Context, d *Delta) (*ApplyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	cur := e.snap.Load()
	base := cur.g
	if base == nil {
		return nil, fmt.Errorf("roundtriprank: Apply needs the engine to serve a *Graph, not %T", cur.view)
	}
	ng, err := graph.Commit(base, d)
	if err != nil {
		// Commit failures are caller faults: a stale Delta, an unknown node, a
		// malformed edge. Mark them so HTTP layers can answer 4xx, not 5xx.
		return nil, &ValidationError{Err: err}
	}
	res := &ApplyResult{Graph: ng, Epoch: ng.Epoch()}
	switch {
	case e.fleetMgr != nil:
		st, err := e.fleetMgr.Reconcile(ctx, ng)
		if err != nil {
			return nil, &ClusterError{Err: fmt.Errorf("fleet reconcile for epoch %d: %w", ng.Epoch(), err)}
		}
		res.StripesShipped, res.StripesRetagged, res.StripesRemoved = st.Shipped, st.Retagged, st.Removed
	case len(e.workers) > 0:
		res.StripesShipped, res.StripesRetagged, err = RedeployStripes(ctx, ng, e.workers)
		if err != nil {
			return nil, &ClusterError{Err: fmt.Errorf("redeploy for epoch %d: %w", ng.Epoch(), err)}
		}
	}
	e.snap.Store(e.newSnapshot(ng))
	if e.cache != nil {
		e.cache.DeleteFunc(func(k vecKey) bool { return k.epoch != ng.Epoch() })
	}
	return res, nil
}
