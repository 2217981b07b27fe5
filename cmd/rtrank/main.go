// Command rtrank is a command-line query tool for RoundTripRank. It generates
// a synthetic dataset's graph, resolves query node labels, and runs one
// request through the Engine, printing the top-K ranking.
//
// Examples:
//
//	rtrank -dataset bibnet -scale 0.3 -query term:spatio,term:temporal,term:data -type venue -k 5
//	rtrank -dataset bibnet -query paper:p000042 -k 10 -method 2sbound -epsilon 0.01
//	rtrank -dataset qlog -query "phrase:cheap flight ticket" -type url -beta 0.3
//
// The -method flag selects the execution path: auto (the default planner),
// exact, distributed (fan the exact solve out to the gpserver workers listed
// in -workers), 2sbound, or 2sbound-remote (the online search over the rows of
// those workers). Interrupting the process (Ctrl-C) cancels the in-flight
// query.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
)

func main() {
	var (
		dataset    = flag.String("dataset", "", "synthetic dataset to generate: bibnet or qlog")
		scale      = flag.Float64("scale", 0.3, "scale factor for synthetic datasets")
		querySpec  = flag.String("query", "", "comma-separated query node labels")
		typeName   = flag.String("type", "", "restrict results to this node type name as registered on the graph (e.g. paper, author, venue)")
		k          = flag.Int("k", 10, "number of results")
		alpha      = flag.Float64("alpha", 0.25, "teleport probability")
		beta       = flag.Float64("beta", 0.5, "specificity bias (0 = importance only, 1 = specificity only)")
		methodName = flag.String("method", "auto", "execution method: auto, exact, distributed, 2sbound, 2sbound-remote")
		epsilon    = flag.Float64("epsilon", 0.01, "approximation slack for the online methods")
		keepQuery  = flag.Bool("keep-query", false, "keep the query nodes themselves in the results")
		workers    = flag.String("workers", "", "comma-separated gpserver base URLs serving this graph's stripes (for -method distributed and 2sbound-remote)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	g, err := cliutil.LoadGraph(*dataset, *scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	if *querySpec == "" {
		log.Fatal("missing -query: provide one or more node labels separated by commas")
	}
	var queryNodes []roundtriprank.NodeID
	for _, label := range strings.Split(*querySpec, ",") {
		label = strings.TrimSpace(label)
		v := g.NodeByLabel(label)
		if v == roundtriprank.NoNode {
			log.Fatalf("query node %q not found", label)
		}
		queryNodes = append(queryNodes, v)
	}

	method, err := roundtriprank.ParseMethod(*methodName)
	if err != nil {
		log.Fatal(err)
	}
	filter := &roundtriprank.Filter{ExcludeQuery: !*keepQuery}
	if *typeName != "" {
		t, err := cliutil.TypeByName(g, *typeName)
		if err != nil {
			log.Fatal(err)
		}
		filter.Types = []roundtriprank.NodeType{t}
	}

	var opts []roundtriprank.Option
	if *workers != "" {
		var transports []roundtriprank.Transport
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				transports = append(transports, roundtriprank.DialWorker(u))
			}
		}
		opts = append(opts, roundtriprank.WithWorkers(transports...))
	}
	engine, err := roundtriprank.NewEngine(g, opts...)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := engine.Rank(ctx, roundtriprank.Request{
		Query:   roundtriprank.MultiNode(queryNodes...),
		K:       *k,
		Method:  method,
		Filter:  filter,
		Alpha:   *alpha,
		Beta:    roundtriprank.Float64(*beta),
		Epsilon: *epsilon,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "method: %s, converged: %v, elapsed: %s\n",
		resp.Method, resp.Converged, resp.Elapsed.Round(resp.Elapsed/100+1))
	for i, r := range resp.Results {
		fmt.Printf("%2d. %-50s %.6g\n", i+1, g.Label(r.Node), r.Score)
	}
}
