// Package cliutil holds the small helpers shared by the commands under cmd/:
// generating the graph of a synthetic dataset, resolving
// node-type names against a graph's type registry, and running an HTTP server
// with uniform timeouts and graceful shutdown (rtrankd and gpserver both
// serve through ListenAndServe).
package cliutil

import (
	"fmt"
	"strings"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
)

// LoadGraph generates the named synthetic dataset ("bibnet" or "qlog") at the
// given scale.
func LoadGraph(dataset string, scale float64) (*graph.Graph, error) {
	switch dataset {
	case "bibnet":
		net, err := datasets.GenerateBibNet(datasets.ScaledBibNetConfig(scale))
		if err != nil {
			return nil, err
		}
		return net.Graph, nil
	case "qlog":
		qlog, err := datasets.GenerateQLog(datasets.ScaledQLogConfig(scale))
		if err != nil {
			return nil, err
		}
		return qlog.Graph, nil
	default:
		return nil, fmt.Errorf("provide -dataset bibnet|qlog")
	}
}

// TypeByName resolves a node-type name (case-insensitive) against the graph's
// type registry; the numeric fallback names ("type-3") also resolve.
func TypeByName(g *graph.Graph, name string) (graph.Type, error) {
	for t := 0; t < 256; t++ {
		if strings.EqualFold(g.TypeName(graph.Type(t)), name) {
			return graph.Type(t), nil
		}
	}
	return 0, fmt.Errorf("unknown node type %q", name)
}
