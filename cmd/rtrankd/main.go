// Command rtrankd serves RoundTripRank queries over HTTP. It generates a
// synthetic dataset's graph, builds an Engine, and exposes
//
//	POST /rank      — execute one ranking request (JSON in, JSON out)
//	GET  /healthz   — liveness plus graph stats
//	GET  /metrics   — Prometheus text exposition (see docs/OPERATIONS.md)
//	GET  /v1/epoch  — the serving snapshot: epoch, fingerprint, sizes
//	POST /v1/edges  — batched graph mutation: stage a delta, commit a new
//	                  epoch, swap the engine (and redeploy worker stripes)
//
// Example:
//
//	rtrankd -dataset bibnet -scale 0.3 -listen :8080 &
//	curl -s localhost:8080/rank -d '{
//	    "query": ["term:spatio", "term:temporal", "term:data"],
//	    "k": 5, "type": "venue", "method": "auto"
//	}'
//	curl -s localhost:8080/v1/edges -d '{
//	    "add_nodes": [{"type": "term", "label": "term:streaming"}],
//	    "set": [{"from": "term:streaming", "to": "paper:p0",
//	             "weight": 1, "undirected": true}]
//	}'
//
// With -workers, rtrankd also acts as the coordinator front end of a
// gpserver cluster: the listed workers must serve the stripes of the same
// graph, and requests may then select "method": "distributed" to fan the
// exact solve out across them, or "method": "2sbound-remote" to run the
// online search against the fleet's rows through the row cache (see
// docs/API.md). At startup rtrankd ships each listed worker its stripe unless
// it already serves it, so gpservers may start empty. A mutation then also
// reconciles the fleet before the new epoch serves, shipping only stripes
// the commit changed (docs/OPERATIONS.md walks through the lifecycle).
//
// With -fleet-stripes, the worker set self-organizes instead of being listed
// on the command line: rtrankd mounts the membership endpoints
// (POST /v1/register, POST /v1/heartbeat, POST /v1/drain, GET /v1/fleet),
// gpservers started with -register join and heartbeat, and a tick loop
// (-fleet-tick) counts missed heartbeats, evicts dead members, and
// reconciles R-way replicated stripe placement (-replication) over the live
// ones. Queries fail over between a stripe's replicas, so killing any single
// worker mid-query changes no answers; a rejoining worker whose retained
// stripes still fingerprint-match is revalidated without re-shipping. See
// docs/OPERATIONS.md for the fleet runbook.
//
// The server applies bounded-in-flight admission control (-max-inflight;
// excess load is shed with 429 + Retry-After), a per-request deadline
// (-request-timeout), and read/write timeouts; it shuts down gracefully on
// SIGINT/SIGTERM, draining in-flight queries. Queries run under the HTTP
// request context, so a disconnecting client cancels its in-flight
// computation; mutations detach onto a server-scoped context so a commit
// finishes coherently regardless of the caller. The serving logic itself
// lives in internal/serve; this command only parses flags and wires the
// stack together.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"os/signal"
	"syscall"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
	"roundtriprank/internal/serve"
)

func main() {
	var (
		dataset     = flag.String("dataset", "", "synthetic dataset to generate: bibnet or qlog")
		scale       = flag.Float64("scale", 0.3, "scale factor for synthetic datasets")
		listen      = flag.String("listen", "127.0.0.1:8080", "listen address")
		workers     = flag.String("workers", "", "comma-separated gpserver base URLs serving this graph's stripes; enables \"method\": \"distributed\"")
		writeTmo    = flag.Duration("write-timeout", 5*time.Minute, "HTTP response write timeout (must cover the slowest query)")
		maxInflight = flag.Int("max-inflight", 4*runtime.GOMAXPROCS(0), "admitted concurrent requests before shedding with 429 (0 disables the gate)")
		requestTmo  = flag.Duration("request-timeout", 0, "per-request deadline for admitted requests (0 leaves only the write timeout)")
		mutationTmo = flag.Duration("mutation-timeout", serve.DefaultMutationTimeout, "server-side bound on one mutation commit + fleet redeploy")
		degradeMgn  = flag.Duration("degrade-margin", 50*time.Millisecond, "deadline-aware degradation: stop a deadline-bearing query this early and return the certified partial result with 200 instead of timing out with 504 (0 disables)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint written on shed (429) responses")
		fleetN      = flag.Int("fleet-stripes", 0, "stripe count of a self-organizing worker fleet; enables /v1/register + /v1/heartbeat and replicated placement over registered gpservers (exclusive with -workers)")
		replication = flag.Int("replication", 2, "replica count per stripe of the -fleet-stripes fleet")
		fleetTick   = flag.Duration("fleet-tick", 2*time.Second, "membership tick period: each tick counts a missed heartbeat against silent members and reconciles placement when membership changed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	g, err := cliutil.LoadGraph(*dataset, *scale)
	if err != nil {
		log.Fatal(err)
	}
	metrics := serve.NewMetrics()
	opts := []roundtriprank.Option{roundtriprank.WithQueryStatsHook(metrics.RecordQuery)}
	var transports []roundtriprank.Transport
	var fleetMgr *roundtriprank.Fleet
	switch {
	case *fleetN > 0 && *workers != "":
		log.Fatal("-fleet-stripes and -workers are mutually exclusive: a fleet discovers its workers through registration")
	case *fleetN > 0:
		fleetMgr, err = roundtriprank.NewFleet(roundtriprank.FleetOptions{
			Stripes: *fleetN, Replication: *replication,
		})
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, roundtriprank.WithFleet(fleetMgr))
	case *workers != "":
		for _, u := range strings.Split(*workers, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			transports = append(transports, roundtriprank.DialWorker(u))
		}
		opts = append(opts, roundtriprank.WithWorkers(transports...))
	}
	engine, err := roundtriprank.NewEngine(g, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if len(transports) > 0 {
		provision(ctx, g, transports, *mutationTmo)
	}
	workerCount := len(transports)
	if fleetMgr != nil {
		workerCount = *fleetN
	}
	s := serve.New(engine, metrics, serve.Config{
		Workers:         workerCount,
		MutationTimeout: *mutationTmo,
		BaseContext:     ctx,
		DegradeMargin:   *degradeMgn,
	})
	mux := s.Handler()
	routes, exempt := serve.Routes(), serve.ExemptRoutes()
	if fleetMgr != nil {
		mux = mountFleet(mux, fleetMgr)
		routes = append(routes, fleetRoutes...)
		// Membership traffic must bypass admission control: a saturated
		// coordinator shedding heartbeats with 429 would evict live workers
		// and make the overload worse by re-placing their stripes.
		exempt = append(exempt, fleetRoutes...)
		go fleetLoop(ctx, engine, fleetMgr, *fleetTick)
	}
	var handler http.Handler = cliutil.WrapHTTP(mux, metrics.Registry(), cliutil.HTTPOptions{
		Routes:         routes,
		Exempt:         exempt,
		MaxInFlight:    *maxInflight,
		RetryAfter:     *retryAfter,
		RequestTimeout: *requestTmo,
	})

	cfg := cliutil.HTTPServerConfig{WriteTimeout: *writeTmo}
	err = cliutil.ListenAndServe(ctx, *listen, handler, cfg, func(a net.Addr) {
		if fleetMgr != nil {
			log.Printf("rtrankd serving %d nodes, %d edges on %s (fleet of %d stripes, R=%d, max %d in flight)",
				g.NumNodes(), g.NumEdges(), a, *fleetN, *replication, *maxInflight)
			return
		}
		log.Printf("rtrankd serving %d nodes, %d edges on %s (%d stripe workers, max %d in flight)",
			g.NumNodes(), g.NumEdges(), a, len(transports), *maxInflight)
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down")
}

// provision brings the -workers list to the served graph once at startup, so
// workers started empty (or on an older epoch) serve the distributed methods
// before the first mutation; a worker that already holds its stripe costs one
// Info call. A failure is logged, not fatal: every Apply redeploys anyway.
func provision(ctx context.Context, g *roundtriprank.Graph, workers []roundtriprank.Transport, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	shipped, retagged, err := roundtriprank.RedeployStripes(ctx, g, workers)
	if err != nil {
		log.Printf("provisioning workers: %v (serving anyway; the next mutation redeploys)", err)
		return
	}
	log.Printf("workers provisioned: %d stripes shipped, %d retagged", shipped, retagged)
}

// fleetRoutes are the membership endpoints mounted in -fleet-stripes mode.
var fleetRoutes = []string{"/v1/register", "/v1/heartbeat", "/v1/drain", "/v1/fleet"}

// mountFleet layers the fleet manager's membership endpoints over the serving
// mux; everything else falls through to the serving routes.
func mountFleet(inner http.Handler, m *roundtriprank.Fleet) http.Handler {
	mux := http.NewServeMux()
	fh := m.Handler()
	for _, route := range fleetRoutes {
		mux.Handle(route, fh)
	}
	mux.Handle("/", inner)
	return mux
}

// fleetLoop drives the fleet's liveness clock: every tick counts a missed
// heartbeat against members that stayed silent since the previous tick, and
// whenever the membership table's generation moved (a registration, a state
// transition, a drain) it reconciles placement against the currently served
// snapshot — shipping stripes to new members, re-placing the stripes of dead
// ones, and fingerprint-revalidating rejoiners. Mutations reconcile through
// Engine.Apply on their own; this loop only reacts to membership changes.
func fleetLoop(ctx context.Context, engine *roundtriprank.Engine, m *roundtriprank.Fleet, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	var reconciled uint64
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.Table().Tick()
			gen := m.Table().Gen()
			if gen == reconciled {
				continue
			}
			g, ok := engine.View().(*roundtriprank.Graph)
			if !ok {
				log.Printf("fleet: cannot reconcile a %T view", engine.View())
				return
			}
			st, err := m.Reconcile(ctx, g)
			if err != nil {
				// Transient by nature (a stripe's members all died mid-ship);
				// the next tick retries against the then-current membership.
				log.Printf("fleet reconcile: %v", err)
				continue
			}
			if st.Failed == 0 { // else the next tick retries the failed ships
				reconciled = gen
			}
			h := engine.FleetStats()
			log.Printf("fleet reconciled (gen %d): %d shipped, %d retagged, %d removed, %d failed; members %d alive / %d suspect / %d dead",
				gen, st.Shipped, st.Retagged, st.Removed, st.Failed, h.MembersAlive, h.MembersSuspect, h.MembersDead)
		}
	}
}
