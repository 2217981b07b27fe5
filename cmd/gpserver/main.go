// Command gpserver runs one stripe worker of a distributed RoundTripRank
// deployment. It serves the coordinator/worker wire protocol over HTTP (see
// docs/API.md): stateless per-iteration multiply RPCs plus topology metadata,
// which an Engine configured with WithWorkers fans exact solves out to.
//
// The worker gets its stripe in one of two ways:
//
//   - extracted from a graph it generates itself (-dataset with
//     -stripe/-of),
//   - received over the network: started with no stripe flags, it waits for
//     a coordinator to POST one to /v1/stripe — rtrankd -workers does at
//     startup, rtrankd -fleet-stripes on registration, and a Go program with
//     roundtriprank.RedeployStripes.
//
// With -register, the worker additionally joins a self-organizing fleet: it
// registers with the coordinator daemon (rtrankd -fleet-stripes) under a
// stable identity and heartbeats every -heartbeat-interval; the coordinator
// places replicated stripes on the live members and ships them over the
// normal /v1/stripe endpoint, so a registered worker usually starts empty. A
// worker that misses heartbeats is suspected, then evicted and its stripes
// re-placed; when it comes back, it re-registers automatically and unchanged
// retained stripes are revalidated by content fingerprint instead of
// re-shipped (see docs/OPERATIONS.md).
//
// Workers serve immutable stripe snapshots. When the source graph commits a
// new epoch, the coordinator side (roundtriprank.RedeployStripes, or an
// rtrankd front end applying POST /v1/edges) reconciles the fleet: stripes
// whose rows the commit changed are re-shipped to /v1/stripe, unchanged ones
// are rebound to the new epoch via the cheap POST /v1/stripe/retag endpoint.
// GET /healthz and /v1/info report the served epoch and fingerprints, so an
// operator can watch a rollover land (see docs/OPERATIONS.md).
//
// Example (3-worker deployment of a synthetic BibNet, each worker extracting
// its own stripe):
//
//	gpserver -dataset bibnet -scale 1.0 -stripe 0 -of 3 -listen :7001 &
//	gpserver -dataset bibnet -scale 1.0 -stripe 1 -of 3 -listen :7002 &
//	gpserver -dataset bibnet -scale 1.0 -stripe 2 -of 3 -listen :7003 &
//
// Requests are served with read/write timeouts, and SIGINT/SIGTERM trigger a
// graceful drain before exit. GET /metrics serves the worker's Prometheus
// exposition (request counts and latency by route, stripe/epoch gauges); an
// optional -max-inflight gate sheds excess load with 429 + Retry-After.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"os/signal"
	"syscall"

	"roundtriprank/internal/cliutil"
	"roundtriprank/internal/distributed"
	"roundtriprank/internal/fleet"
	"roundtriprank/internal/obs"
)

// workerRoutes are the wire-protocol paths the middleware may label; other
// paths collapse into path="other".
var workerRoutes = []string{
	"/healthz", "/metrics", "/v1/info", "/v1/outsums", "/v1/outdegs",
	"/v1/multiply", "/v1/rows", "/v1/stripe", "/v1/stripe/retag",
}

func main() {
	var (
		dataset   = flag.String("dataset", "", "synthetic dataset to generate and stripe: bibnet or qlog")
		scale     = flag.Float64("scale", 1.0, "scale factor for synthetic datasets")
		stripe    = flag.Int("stripe", 0, "stripe index served by this worker (with -dataset)")
		of        = flag.Int("of", 1, "total number of workers in the deployment (with -dataset)")
		listen    = flag.String("listen", "127.0.0.1:7001", "HTTP listen address")
		writeTmo  = flag.Duration("write-timeout", 5*time.Minute, "HTTP response write timeout (must cover the slowest multiply)")
		readTmo   = flag.Duration("read-timeout", time.Minute, "HTTP request read timeout (must cover a stripe upload)")
		maxInflt  = flag.Int("max-inflight", 0, "admitted concurrent requests before shedding with 429 (0, the default, disables the gate: a worker's load is its coordinator's concurrency)")
		register  = flag.String("register", "", "coordinator base URL to register with and heartbeat (enables fleet membership; see docs/OPERATIONS.md)")
		advertise = flag.String("advertise", "", "wire-protocol base URL advertised to the coordinator (default: derived from the bound listen address — set it when the worker is behind NAT or a proxy)")
		workerID  = flag.String("worker-id", "", "stable member identity used with -register (default: the advertised host:port)")
		beatEvery = flag.Duration("heartbeat-interval", time.Second, "heartbeat period of the -register loop; the coordinator's miss thresholds are counted in its own tick units, so keep this shorter than the coordinator's -fleet-tick")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	s, err := loadStripe(*dataset, *scale, *stripe, *of)
	if err != nil {
		log.Fatal(err)
	}
	worker := distributed.NewWorker(s)
	if s != nil {
		log.Printf("worker serving stripe %d/%d (%d of %d nodes, %.1f MB)",
			s.Index, s.Count, s.Rows(), s.NumNodes, float64(s.SizeBytes())/(1<<20))
	} else {
		log.Printf("worker starting empty; POST a stripe to /v1/stripe to begin serving")
	}

	reg := obs.NewRegistry("gpserver")
	registerWorkerGauges(reg, worker)
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("/", worker.Handler())
	handler := cliutil.WrapHTTP(mux, reg, cliutil.HTTPOptions{
		Routes:      workerRoutes,
		Exempt:      []string{"/healthz", "/metrics"},
		MaxInFlight: *maxInflt,
	})

	cfg := cliutil.HTTPServerConfig{ReadTimeout: *readTmo, WriteTimeout: *writeTmo}
	err = cliutil.ListenAndServe(ctx, *listen, handler, cfg, func(a net.Addr) {
		log.Printf("worker wire protocol on %s", a)
		if *register == "" {
			return
		}
		addr := *advertise
		if addr == "" {
			addr = "http://" + a.String()
		}
		id := *workerID
		if id == "" {
			id = strings.TrimPrefix(strings.TrimPrefix(addr, "https://"), "http://")
		}
		reg := &fleet.Registrar{
			Coordinator: *register,
			ID:          id,
			Addr:        addr,
			Interval:    *beatEvery,
			OnError:     func(err error) { log.Printf("fleet membership: %v", err) },
		}
		log.Printf("registering with %s as %q (advertising %s, heartbeat every %s)",
			*register, id, addr, *beatEvery)
		go reg.Run(ctx)
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down")
}

// registerWorkerGauges exposes the served stripes' identity on /metrics:
// epoch (the lag signal an rtrankd front end alerts on), stripe index/count
// and row/edge sizes. All read the worker's stripe set at scrape time, so a
// stripe swap or retag shows up on the next scrape; an empty worker reports
// zeros. A replicated fleet member holds several stripes at once, so the
// size gauges sum over the held set, the epoch gauge reports the laggard
// (minimum) epoch, and stripe_index degrades to -1 when more than one stripe
// is held (the per-stripe identities are on /v1/info?stripe=N).
func registerWorkerGauges(reg *obs.Registry, worker *distributed.Worker) {
	sum := func(f func(*distributed.Stripe) int) func() float64 {
		return func() float64 {
			var total int
			for _, s := range worker.Stripes() {
				total += f(s)
			}
			return float64(total)
		}
	}
	reg.Gauge("stripe_epoch", "Minimum epoch across the served stripes (0 when empty).", "",
		func() float64 {
			stripes := worker.Stripes()
			if len(stripes) == 0 {
				return 0
			}
			min := stripes[0].Epoch
			for _, s := range stripes[1:] {
				if e := s.Epoch; e < min {
					min = e
				}
			}
			return float64(min)
		})
	reg.Gauge("stripe_index", "Index of the served stripe (-1 when several stripes are held).", "",
		func() float64 {
			stripes := worker.Stripes()
			switch len(stripes) {
			case 0:
				return 0
			case 1:
				return float64(stripes[0].Index)
			default:
				return -1
			}
		})
	reg.Gauge("stripe_count", "Total stripes in the deployment the served stripes belong to.", "",
		func() float64 {
			stripes := worker.Stripes()
			if len(stripes) == 0 {
				return 0
			}
			return float64(stripes[0].Count)
		})
	reg.Gauge("stripes_held", "Number of stripes this worker currently serves.", "",
		func() float64 { return float64(len(worker.Stripes())) })
	reg.Gauge("stripe_rows", "Rows owned across the served stripes.", "",
		sum(func(s *distributed.Stripe) int { return s.Rows() }))
	reg.Gauge("stripe_out_edges", "Out-edges stored across the served stripes.", "",
		sum(func(s *distributed.Stripe) int { return len(s.Out.Col) }))
}

// loadStripe extracts the stripe from the dataset the flags name; it returns
// nil when no dataset is named and the worker should start empty and wait to
// receive a stripe.
func loadStripe(dataset string, scale float64, stripe, of int) (*distributed.Stripe, error) {
	if dataset == "" {
		return nil, nil
	}
	g, err := cliutil.LoadGraph(dataset, scale)
	if err != nil {
		return nil, err
	}
	return distributed.BuildStripe(g, stripe, of)
}
