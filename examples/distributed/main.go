// Command distributed demonstrates both multi-process execution paths over a
// striped graph.
//
// First the coordinator/worker path: the graph is striped across several
// gpserver-protocol workers served over loopback HTTP, and the Engine's
// Distributed method fans exact power iterations out to them, returning
// bit-identical results to the local exact solver.
//
// Then the active-set architecture of Sect. V-B on the same workers: the
// TwoSBoundRemote method runs the online 2SBound search on the coordinator
// and fetches only the rows the query touches from the stripes, caching them
// — the observation that makes the distributed deployment practical.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/distributed"
)

func main() {
	gps := flag.Int("gps", 3, "number of workers to stripe the graph across")
	scale := flag.Float64("scale", 0.2, "dataset scale relative to the default BibNet configuration")
	queries := flag.Int("queries", 5, "number of top-K queries to run")
	flag.Parse()

	net_, err := datasets.GenerateBibNet(datasets.ScaledBibNetConfig(*scale))
	if err != nil {
		log.Fatal(err)
	}
	g := net_.Graph
	fmt.Printf("Graph: %d nodes, %d edges (%.1f MB)\n", g.NumNodes(), g.NumEdges(),
		float64(g.SizeBytes())/(1<<20))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// --- Part 1: exact solves through the coordinator/worker subsystem. ---
	// Each worker serves one stripe over the real HTTP wire protocol, exactly
	// as a cmd/gpserver process would.
	transports, stop := startHTTPWorkers(ctx, g, *gps)
	defer stop()
	engine, err := roundtriprank.NewEngine(g, roundtriprank.WithWorkers(transports...))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStarted %d HTTP stripe workers; comparing Distributed against Exact:\n", *gps)
	for i := 0; i < *queries && i < len(net_.Papers); i++ {
		q := net_.Papers[i*17%len(net_.Papers)]
		req := roundtriprank.Request{Query: roundtriprank.SingleNode(q), K: 5}
		req.Method = roundtriprank.Distributed
		dist, err := engine.Rank(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		req.Method = roundtriprank.Exact
		exact, err := engine.Rank(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		match := "IDENTICAL"
		if len(dist.Results) != len(exact.Results) {
			match = "DIVERGED"
		} else {
			for j := range exact.Results {
				if dist.Results[j] != exact.Results[j] {
					match = "DIVERGED"
					break
				}
			}
		}
		fmt.Printf("  %-28s top-%d %s (distributed %v, exact %v)\n",
			g.Label(q)+":", len(dist.Results), match, dist.Elapsed.Round(1000), exact.Elapsed.Round(1000))
		if i == 0 {
			for rank, r := range dist.Results[:min(3, len(dist.Results))] {
				fmt.Printf("      %d. %s\n", rank+1, g.Label(r.Node))
			}
		}
	}
	fs := engine.FleetStats()
	fmt.Printf("  Cluster: %d worker RPCs, %d retries\n", fs.RPCs, fs.Retries)

	// --- Part 2: the online 2SBound search over the same workers. ---
	// The searcher runs here; adjacency arrives row by row from the stripes
	// and stays in the engine's row cache, which is the active set.
	fmt.Printf("\nOnline 2SBound over the same workers (rows fetched on demand):\n")
	for i := 0; i < *queries && i < len(net_.Papers); i++ {
		q := net_.Papers[i*17%len(net_.Papers)]
		resp, err := engine.Rank(ctx, roundtriprank.Request{
			Query:   roundtriprank.SingleNode(q),
			K:       10,
			Epsilon: 0.01,
			Method:  roundtriprank.TwoSBoundRemote,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s top-%d: %d rows fetched in %d RPCs, %d cache hits\n",
			g.Label(q)+":", len(resp.Results), resp.Rows.Fetched, resp.Rows.RPCs, resp.Rows.CacheHits)
	}
	cached := engine.FleetStats().CachedRows
	fmt.Printf("\nActive set after %d queries: %d rows cached — %.2f%% of the graph\n",
		*queries, cached, 100*float64(cached)/float64(g.NumNodes()))
}

// startHTTPWorkers stripes g across n workers, each serving the gpserver
// wire protocol on an ephemeral loopback port, and dials a transport to each.
func startHTTPWorkers(ctx context.Context, g *roundtriprank.Graph, n int) ([]roundtriprank.Transport, func()) {
	transports := make([]roundtriprank.Transport, n)
	for i := 0; i < n; i++ {
		stripe, err := distributed.BuildStripe(g, i, n)
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		handler := distributed.NewWorker(stripe).Handler()
		go func() {
			if err := cliutil.Serve(ctx, ln, handler, cliutil.HTTPServerConfig{}); err != nil && err != http.ErrServerClosed {
				log.Printf("worker: %v", err)
			}
		}()
		transports[i] = roundtriprank.DialWorker("http://" + ln.Addr().String())
	}
	return transports, func() {
		for _, t := range transports {
			t.Close()
		}
	}
}
