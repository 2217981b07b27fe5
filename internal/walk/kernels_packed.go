package walk

import (
	"context"

	"roundtriprank/internal/graph"
)

// This file holds the packed-CSR kernels: the same pull-style, row-
// partitioned matvecs as kernels.go, but streaming each row through
// graph.PackedIter instead of indexing flat arrays. Every loop mirrors its
// flat counterpart's operation order exactly — each output row is still a
// sequential reduction over the identical entry sequence — so the packed
// kernels are bit-identical to the flat ones for every worker count
// (kernels_packed_test.go pins this per node, per iteration budget).

// fRankPacked is fRankCSR over a packed view.
func fRankPacked(ctx context.Context, pv graph.PackedCSRView, restart []float64, p Params, pool *Pool) ([]float64, error) {
	n := len(restart)
	out, in := pv.OutPacked(), pv.InPacked()
	cur := make([]float64, n)
	next := make([]float64, n)
	scaled := make([]float64, n)
	copy(cur, restart)
	oneMinus := 1 - p.Alpha

	for iter := 0; iter < p.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dangling := 0.0
		for u := 0; u < n; u++ {
			if out.Sum[u] > 0 {
				scaled[u] = cur[u] / out.Sum[u]
			} else {
				scaled[u] = 0
				dangling += cur[u]
			}
		}
		dadd := oneMinus * dangling
		pool.Run(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				it := in.Iter(graph.NodeID(v))
				for {
					col, w, ok := it.Next()
					if !ok {
						break
					}
					sum += w * scaled[col]
				}
				r := restart[v]
				nv := p.Alpha*r + oneMinus*sum
				if dadd > 0 && r > 0 {
					nv += dadd * r
				}
				next[v] = nv
			}
		})
		diff := l1Diff(cur, next)
		cur, next = next, cur
		if diff < p.Tol {
			break
		}
	}
	return cur, nil
}

// tRankPacked is tRankCSR over a packed view.
func tRankPacked(ctx context.Context, pv graph.PackedCSRView, restart []float64, p Params, pool *Pool) ([]float64, error) {
	n := len(restart)
	out := pv.OutPacked()
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = p.Alpha * restart[i]
	}
	oneMinus := 1 - p.Alpha

	for iter := 0; iter < p.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pool.Run(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				acc := p.Alpha * restart[v]
				if sum := out.Sum[v]; sum > 0 {
					s := 0.0
					it := out.Iter(graph.NodeID(v))
					for {
						col, w, ok := it.Next()
						if !ok {
							break
						}
						s += w * cur[col]
					}
					acc += oneMinus * s / sum
				}
				next[v] = acc
			}
		})
		diff := l1Diff(cur, next)
		cur, next = next, cur
		if diff < p.Tol {
			break
		}
	}
	return cur, nil
}

// pageRankPacked is pageRankCSR over a packed view.
func pageRankPacked(ctx context.Context, pv graph.PackedCSRView, d, tol float64, maxIter int, pool *Pool) ([]float64, error) {
	n := pv.NumNodes()
	out, in := pv.OutPacked(), pv.InPacked()
	uniform := 1.0 / float64(n)
	cur := make([]float64, n)
	next := make([]float64, n)
	scaled := make([]float64, n)
	for i := range cur {
		cur[i] = uniform
	}
	oneMinus := 1 - d

	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dangling := 0.0
		for u := 0; u < n; u++ {
			if out.Sum[u] > 0 {
				scaled[u] = cur[u] / out.Sum[u]
			} else {
				scaled[u] = 0
				dangling += cur[u]
			}
		}
		base := d*uniform + oneMinus*dangling*uniform
		pool.Run(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				it := in.Iter(graph.NodeID(v))
				for {
					col, w, ok := it.Next()
					if !ok {
						break
					}
					sum += w * scaled[col]
				}
				next[v] = base + oneMinus*sum
			}
		})
		diff := l1Diff(cur, next)
		cur, next = next, cur
		if diff < tol {
			break
		}
	}
	return cur, nil
}
