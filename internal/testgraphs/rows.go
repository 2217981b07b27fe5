package testgraphs

import (
	"math"
	"slices"

	"roundtriprank/internal/graph"
)

// StrictRows decorates a graph.Rows for tests so that each row lives exactly
// as long as the Rows contract promises: it serves a copy of every row, and
// before it serves the next row of that direction it overwrites the last one
// (columns with the out-of-range id -1, weights with NaN), so a caller that
// holds a row past the next fetch in its direction reads garbage. Everything
// else passes through. Not safe for concurrent use: one per query.
type StrictRows struct {
	graph.Rows
	out, in strictRow
}

// strictRow is the last row StrictRows served in one direction.
type strictRow struct {
	cols []graph.NodeID
	wts  []float64
}

// NewStrictRows wraps base.
func NewStrictRows(base graph.Rows) *StrictRows { return &StrictRows{Rows: base} }

// OutRow implements graph.Rows.
func (s *StrictRows) OutRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	cols, wts := s.Rows.OutRow(v)
	return s.out.serve(cols, wts)
}

// InRow implements graph.Rows.
func (s *StrictRows) InRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	cols, wts := s.Rows.InRow(v)
	return s.in.serve(cols, wts)
}

// serve overwrites the row served last and returns a fresh copy of cols and
// wts, so every row served before stays overwritten.
func (r *strictRow) serve(cols []graph.NodeID, wts []float64) ([]graph.NodeID, []float64) {
	for i := range r.cols {
		r.cols[i] = -1
	}
	for i := range r.wts {
		r.wts[i] = math.NaN()
	}
	r.cols, r.wts = slices.Clip(slices.Clone(cols)), slices.Clip(slices.Clone(wts))
	return r.cols, r.wts
}
