package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNDCGAtK(t *testing.T) {
	rel := map[string]bool{"a": true, "b": true}
	// Perfect ranking.
	if got := NDCGAtK([]string{"a", "b", "c"}, rel, 3); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect NDCG = %g, want 1", got)
	}
	// Relevant item at rank 2 only: DCG = 1/log2(3), ideal = 1 (only one slot
	// needed? no: two relevant, ideal@2 = 1 + 1/log2(3)).
	got := NDCGAtK([]string{"x", "a", "y"}, rel, 3)
	want := (1 / math.Log2(3)) / (1 + 1/math.Log2(3))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NDCG = %g, want %g", got, want)
	}
	// No relevant items in ranking.
	if got := NDCGAtK([]string{"x", "y"}, rel, 2); got != 0 {
		t.Errorf("NDCG with no hits = %g, want 0", got)
	}
	// Empty relevance set or k<=0.
	if NDCGAtK([]string{"a"}, map[string]bool{}, 5) != 0 || NDCGAtK([]string{"a"}, rel, 0) != 0 {
		t.Errorf("degenerate NDCG should be 0")
	}
	// k larger than ranking length is clipped.
	if got := NDCGAtK([]string{"a"}, rel, 10); got <= 0 {
		t.Errorf("clipped NDCG should be positive")
	}
}

func TestPrecisionAtK(t *testing.T) {
	rel := map[int]bool{1: true, 2: true, 3: true}
	ranking := []int{1, 9, 2, 8, 7}
	if got := PrecisionAtK(ranking, rel, 4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P@4 = %g, want 0.5", got)
	}
	if PrecisionAtK(ranking, rel, 0) != 0 {
		t.Errorf("k=0 should give 0")
	}
	// Short ranking: denominator is still k for precision.
	if got := PrecisionAtK([]int{1}, rel, 5); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("P@5 with short ranking = %g, want 0.2", got)
	}
}

func TestKendallTau(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	if tau, err := KendallTau(a, a); err != nil || math.Abs(tau-1) > 1e-12 {
		t.Errorf("identical rankings tau = %g (%v), want 1", tau, err)
	}
	rev := []string{"d", "c", "b", "a"}
	if tau, err := KendallTau(a, rev); err != nil || math.Abs(tau+1) > 1e-12 {
		t.Errorf("reversed rankings tau = %g (%v), want -1", tau, err)
	}
	// One swap among 4 items: 5 concordant, 1 discordant => tau = 4/6.
	swapped := []string{"b", "a", "c", "d"}
	if tau, err := KendallTau(a, swapped); err != nil || math.Abs(tau-4.0/6) > 1e-12 {
		t.Errorf("one-swap tau = %g (%v), want %g", tau, err, 4.0/6)
	}
	// Partial overlap restricts to common items.
	if tau, err := KendallTau([]string{"a", "b", "z"}, []string{"b", "a", "y"}); err != nil || math.Abs(tau+1) > 1e-12 {
		t.Errorf("common-item tau = %g (%v), want -1", tau, err)
	}
	if _, err := KendallTau([]string{"a"}, []string{"b"}); err == nil {
		t.Errorf("disjoint rankings should error")
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %g, want %g", v, 32.0/7)
	}
	if s := StdDev(xs); math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %g", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Errorf("degenerate stats should be 0")
	}
}

func TestConfidenceInterval(t *testing.T) {
	xs := []float64{10, 12, 9, 11, 10, 10, 11, 9, 10, 12}
	ci95 := ConfidenceInterval(xs, 0.95)
	ci99 := ConfidenceInterval(xs, 0.99)
	if ci95 <= 0 || ci99 <= 0 {
		t.Fatalf("confidence intervals should be positive: %g %g", ci95, ci99)
	}
	if ci99 <= ci95 {
		t.Errorf("99%% interval (%g) should be wider than 95%% (%g)", ci99, ci95)
	}
	// Reference value: mean 10.4, sd ~1.075, se ~0.34, t(9, 0.975) ~2.262 =>
	// ci95 ~0.769.
	if math.Abs(ci95-0.769) > 0.01 {
		t.Errorf("ci95 = %g, want ~0.769", ci95)
	}
	if ConfidenceInterval([]float64{1}, 0.95) != 0 || ConfidenceInterval(xs, 0) != 0 || ConfidenceInterval(xs, 1) != 0 {
		t.Errorf("degenerate confidence intervals should be 0")
	}
}

func TestPairedTTest(t *testing.T) {
	a := []float64{88, 82, 84, 93, 75, 78, 84, 87, 95, 91}
	b := []float64{81, 84, 74, 88, 68, 74, 87, 82, 90, 86}
	tStat, p, err := PairedTTest(a, b)
	if err != nil {
		t.Fatalf("PairedTTest: %v", err)
	}
	// Hand-computed reference: mean difference 4.3, sd 3.9735, t = 3.4221;
	// two-tailed p with 9 degrees of freedom ~ 0.0076.
	if math.Abs(tStat-3.4221) > 0.001 {
		t.Errorf("t statistic = %g, want ~3.4221", tStat)
	}
	if math.Abs(p-0.0076) > 0.0005 {
		t.Errorf("p-value = %g, want ~0.0076", p)
	}
	// Identical samples: t=0, p=1.
	if ts, pv, err := PairedTTest(a, a); err != nil || ts != 0 || pv != 1 {
		t.Errorf("identical samples: t=%g p=%g err=%v", ts, pv, err)
	}
	// Constant nonzero difference: infinite t, p=0.
	c := make([]float64, len(a))
	for i := range a {
		c[i] = a[i] + 1
	}
	if ts, pv, err := PairedTTest(c, a); err != nil || !math.IsInf(ts, 1) || pv != 0 {
		t.Errorf("constant difference: t=%g p=%g err=%v", ts, pv, err)
	}
	if _, _, err := PairedTTest(a, a[:3]); err == nil {
		t.Errorf("length mismatch should error")
	}
	if _, _, err := PairedTTest([]float64{1}, []float64{2}); err == nil {
		t.Errorf("single pair should error")
	}
}

func TestStudentTSurvivalReference(t *testing.T) {
	// Reference values: P(T > 2.262) with 9 df ~ 0.025; P(T > 1.96) with
	// large df ~ 0.025.
	if got := studentTSurvival(2.262, 9); math.Abs(got-0.025) > 0.001 {
		t.Errorf("survival(2.262, 9) = %g, want ~0.025", got)
	}
	if got := studentTSurvival(1.96, 10000); math.Abs(got-0.025) > 0.001 {
		t.Errorf("survival(1.96, 10000) = %g, want ~0.025", got)
	}
	if got := studentTSurvival(0, 5); got != 0.5 {
		t.Errorf("survival(0) = %g, want 0.5", got)
	}
	if q := studentTQuantile(0.3, 5); q != 0 {
		t.Errorf("quantile below 0.5 should return 0")
	}
}

// Property: NDCG and precision are always within [0,1], and NDCG is 1 whenever
// all relevant items occupy the top ranks.
func TestQuickNDCGRange(t *testing.T) {
	f := func(seed int64, kRaw, nRaw, relRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%50)
		k := 1 + int(kRaw%20)
		nRel := 1 + int(relRaw)%n
		ranking := rng.Perm(n)
		relevant := map[int]bool{}
		for len(relevant) < nRel {
			relevant[rng.Intn(n)] = true
		}
		ndcg := NDCGAtK(ranking, relevant, k)
		prec := PrecisionAtK(ranking, relevant, k)
		if ndcg < 0 || ndcg > 1+1e-12 || prec < 0 || prec > 1+1e-12 {
			return false
		}
		// Ideal ranking: relevant items first.
		ideal := make([]int, 0, n)
		for x := range relevant {
			ideal = append(ideal, x)
		}
		sort.Ints(ideal)
		for _, x := range ranking {
			if !relevant[x] {
				ideal = append(ideal, x)
			}
		}
		return math.Abs(NDCGAtK(ideal, relevant, k)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Kendall's tau is symmetric up to sign conventions and bounded in
// [-1, 1].
func TestQuickKendallTauProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%30)
		a := rng.Perm(n)
		b := rng.Perm(n)
		tau1, err1 := KendallTau(a, b)
		tau2, err2 := KendallTau(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(tau1-tau2) > 1e-12 {
			return false
		}
		return tau1 >= -1-1e-12 && tau1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
