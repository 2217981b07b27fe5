package walk

import (
	"context"

	"roundtriprank/internal/graph"
)

// This file holds the flat-CSR kernels of the iterative solvers: pull-style
// (gather) sparse matvecs partitioned by contiguous row ranges across a worker
// pool. Pull form is what makes row partitioning race-free — next[v] is
// written by exactly one worker, which reduces v's CSR row sequentially — so
// results are bit-identical for every worker count, including the serial
// reference (see kernels_test.go). Views that cannot expose CSR arrays
// (masked, tracking, delta overlay) are flattened with graph.Compact at the
// door in walk.go and run here too; kernels_packed.go is the only sibling.

// fRankCSR computes F-Rank by pulling over the transposed adjacency:
//
//	next[v] = α·restart[v] + (1−α)·Σ_{u→v} w(u,v)·cur[u]/outSum(u)
//
// with dangling mass restarted at the query.
func fRankCSR(ctx context.Context, cv graph.CSRView, restart []float64, p Params, pool *Pool) ([]float64, error) {
	n := len(restart)
	out, in := cv.OutCSR(), cv.InCSR()
	cur := make([]float64, n)
	next := make([]float64, n)
	scaled := make([]float64, n)
	copy(cur, restart)
	oneMinus := 1 - p.Alpha

	for iter := 0; iter < p.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Scale by inverse out-weight and collect dangling mass. Serial so the
		// dangling reduction has a fixed summation order.
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
				rowLo, rowHi := in.RowPtr[v], in.RowPtr[v+1]
				for i := rowLo; i < rowHi; i++ {
					sum += in.Weight[i] * scaled[in.Col[i]]
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

// tRankCSR computes T-Rank by reducing each node's own out-row:
//
//	next[v] = α·restart[v] + (1−α)·(Σ_{v→to} w(v,to)·cur[to]) / outSum(v)
func tRankCSR(ctx context.Context, cv graph.CSRView, restart []float64, p Params, pool *Pool) ([]float64, error) {
	n := len(restart)
	out := cv.OutCSR()
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
					rowLo, rowHi := out.RowPtr[v], out.RowPtr[v+1]
					for i := rowLo; i < rowHi; i++ {
						s += out.Weight[i] * cur[out.Col[i]]
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

// pageRankCSR computes global PageRank with the same pull-style gather as
// fRankCSR, but with a uniform restart and dangling mass spread uniformly.
func pageRankCSR(ctx context.Context, cv graph.CSRView, d, tol float64, maxIter int, pool *Pool) ([]float64, error) {
	n := cv.NumNodes()
	out, in := cv.OutCSR(), cv.InCSR()
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
				rowLo, rowHi := in.RowPtr[v], in.RowPtr[v+1]
				for i := rowLo; i < rowHi; i++ {
					sum += in.Weight[i] * scaled[in.Col[i]]
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
