//go:build !linux

package graph

import "testing"

// sparseFloats has no sparse mapping to return off Linux; callers skip the
// check that needs it.
func sparseFloats(t *testing.T, n int) []float64 { return nil }
