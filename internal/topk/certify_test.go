package topk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roundtriprank/internal/core"
	"roundtriprank/internal/graph"
)

// TestCertifyRule pins the one certificate rule on hand-made intervals: a
// position certifies when its lower bound is strictly above every upper bound
// ranked below it, outside included; the first that is not stops the count,
// a tie included; the achieved ε is the largest Eq. 13–14 violation, 0 when
// there is none; an empty ranking certifies nothing and achieves outside.
func TestCertifyRule(t *testing.T) {
	iv := func(bounds ...float64) []member {
		out := make([]member, len(bounds)/2)
		for i := range out {
			out[i] = member{graph.NodeID(i), bounds[2*i], bounds[2*i+1]}
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		top      []member
		outside  float64
		certK    int
		achieved float64
	}{
		{"separated", iv(8, 9, 4, 5, 2, 3), 1, 3, 0},
		{"tied pair", iv(8, 9, 4, 4, 4, 4), 1, 1, 0},
		{"overlap below", iv(8, 9, 4, 6, 5, 5.5), 1, 1, 1.5},
		{"tie with outside", iv(8, 9, 4, 5), 4, 1, 0},
		{"outside above", iv(8, 9, 4, 5), 8.5, 0, 4.5},
		{"empty", nil, 0.25, 0, 0.25},
	} {
		certK, achieved := certify(tc.top, tc.outside)
		if certK != tc.certK || achieved != tc.achieved {
			t.Errorf("%s: certify = (%d, %g), want (%d, %g)", tc.name, certK, achieved, tc.certK, tc.achieved)
		}
	}
}

// TestQuickCertifyExactMatchesPlainPass holds CertifyExact to the plain
// reading of its contract on random vectors with zeros and repeated values
// (ties), errors from 0 up, β ∈ {0, 0.3, 0.5, 1} and a random Keep filter:
// the intervals of the returned nodes, and outside as the largest
// combineBounds upper bound over every other kept node, with no pass
// skipped. The certificate must agree bit for bit, so the pass's shortcut
// never skips the largest outsider.
func TestQuickCertifyExactMatchesPlainPass(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		f, tr := make([]float64, n), make([]float64, n)
		levels := []float64{0, 1e-9, 1e-4, 0.003, 0.02, 0.3}
		for v := range f {
			if u := rng.Intn(v + 1); rng.Intn(4) == 0 { // a tie with an earlier node, or itself
				f[v], tr[v] = f[u], tr[u]
				continue
			}
			f[v] = levels[rng.Intn(len(levels))] * (1 + rng.Float64())
			tr[v] = levels[rng.Intn(len(levels))] * (1 + rng.Float64())
		}
		fErr := []float64{0, 1e-12, 1e-6, 1e-3}[rng.Intn(4)]
		tErr := []float64{0, 1e-12, 1e-6, 1e-3}[rng.Intn(4)]
		beta := []float64{0, 0.3, 0.5, 1}[rng.Intn(4)]
		var keep func(graph.NodeID) bool
		if rng.Intn(2) == 0 {
			mod := 2 + rng.Intn(3)
			keep = func(v graph.NodeID) bool { return int(v)%mod != 0 }
		}
		top := core.TopN(core.Combine(f, tr, beta), 1+rng.Intn(12), keep)
		for i, r := range top {
			if r.Score <= 0 {
				top = top[:i]
				break
			}
		}
		expF, expT := 2*(1-beta), 2*beta
		list := make([]member, len(top))
		in := map[graph.NodeID]bool{}
		for i, r := range top {
			v := r.Node
			list[i] = member{v, combineBounds(f[v]-fErr, tr[v]-tErr, expF, expT), combineBounds(f[v]+fErr, tr[v]+tErr, expF, expT)}
			in[v] = true
		}
		outside := 0.0
		for v := range f {
			if id := graph.NodeID(v); !in[id] && (keep == nil || keep(id)) {
				outside = max(outside, combineBounds(f[v]+fErr, tr[v]+tErr, expF, expT))
			}
		}
		wantK, wantEps := certify(list, outside)
		gotK, gotEps := CertifyExact(top, f, tr, fErr, tErr, beta, keep)
		if gotK != wantK || math.Float64bits(gotEps) != math.Float64bits(wantEps) {
			t.Logf("seed %d (n %d, β %g, errors %g %g): CertifyExact = (%d, %g), plain pass (%d, %g)",
				seed, n, beta, fErr, tErr, gotK, gotEps, wantK, wantEps)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
