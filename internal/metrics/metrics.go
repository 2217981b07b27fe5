// Package metrics implements the evaluation measures used in Sect. VI of the
// RoundTripRank paper: NDCG@K with ungraded (binary) judgments, precision@K,
// Kendall's tau between two rankings, two-tailed paired t-tests for
// statistical significance, and mean / confidence-interval helpers for the
// scalability study.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// NDCGAtK computes NDCG@K with ungraded judgments: a ranked item gains 1 if it
// is relevant and 0 otherwise, discounted by log2(rank+1); the ideal DCG
// assumes all |relevant| items (capped at K) are ranked first. The ranking is
// a list of item identifiers in rank order; relevant is the ground-truth set.
// It returns 0 when there are no relevant items.
func NDCGAtK[T comparable](ranking []T, relevant map[T]bool, k int) float64 {
	if k <= 0 || len(relevant) == 0 {
		return 0
	}
	if k > len(ranking) {
		k = len(ranking)
	}
	dcg := 0.0
	for i := 0; i < k; i++ {
		if relevant[ranking[i]] {
			dcg += 1.0 / math.Log2(float64(i)+2)
		}
	}
	ideal := 0.0
	nRel := len(relevant)
	if nRel > k {
		nRel = k
	}
	for i := 0; i < nRel; i++ {
		ideal += 1.0 / math.Log2(float64(i)+2)
	}
	if ideal == 0 {
		return 0
	}
	return dcg / ideal
}

// PrecisionAtK computes the fraction of the top-K ranked items that are
// relevant. When the ranking holds fewer than K items the denominator is still
// K, matching the usual convention for truncated rankings.
func PrecisionAtK[T comparable](ranking []T, relevant map[T]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	hits := 0
	limit := k
	if limit > len(ranking) {
		limit = len(ranking)
	}
	for i := 0; i < limit; i++ {
		if relevant[ranking[i]] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// KendallTau computes Kendall's tau-a rank correlation between two rankings of
// the same item set, restricted to the items present in both. Items are
// compared by their positions; tau = (concordant − discordant) / total pairs.
// It returns an error when fewer than two common items exist.
func KendallTau[T comparable](a, b []T) (float64, error) {
	posA := make(map[T]int, len(a))
	for i, x := range a {
		if _, dup := posA[x]; !dup {
			posA[x] = i
		}
	}
	posB := make(map[T]int, len(b))
	for i, x := range b {
		if _, dup := posB[x]; !dup {
			posB[x] = i
		}
	}
	var common []T
	for x := range posA {
		if _, ok := posB[x]; ok {
			common = append(common, x)
		}
	}
	if len(common) < 2 {
		return 0, fmt.Errorf("metrics: need at least two common items for Kendall's tau, have %d", len(common))
	}
	// Deterministic order for reproducibility.
	sort.Slice(common, func(i, j int) bool { return posA[common[i]] < posA[common[j]] })
	concordant, discordant := 0, 0
	for i := 0; i < len(common); i++ {
		for j := i + 1; j < len(common); j++ {
			da := posA[common[i]] - posA[common[j]]
			db := posB[common[i]] - posB[common[j]]
			switch {
			case da*db > 0:
				concordant++
			case da*db < 0:
				discordant++
			}
		}
	}
	total := len(common) * (len(common) - 1) / 2
	return float64(concordant-discordant) / float64(total), nil
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// ConfidenceInterval returns the half-width of the two-sided confidence
// interval of the mean of xs at the given confidence level (e.g. 0.99 for the
// 99% intervals reported in Fig. 12), using the Student t distribution.
func ConfidenceInterval(xs []float64, level float64) float64 {
	n := len(xs)
	if n < 2 || level <= 0 || level >= 1 {
		return 0
	}
	se := StdDev(xs) / math.Sqrt(float64(n))
	tcrit := studentTQuantile(1-(1-level)/2, float64(n-1))
	return tcrit * se
}

// PairedTTest performs a two-tailed paired t-test on two equally long samples
// and returns the t statistic and the p-value. It errors when the samples have
// different lengths or fewer than two pairs.
func PairedTTest(a, b []float64) (tStat, pValue float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("metrics: paired t-test requires equal-length samples (%d vs %d)", len(a), len(b))
	}
	n := len(a)
	if n < 2 {
		return 0, 0, fmt.Errorf("metrics: paired t-test requires at least two pairs")
	}
	diffs := make([]float64, n)
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	meanD := Mean(diffs)
	sd := StdDev(diffs)
	if sd == 0 {
		if meanD == 0 {
			return 0, 1, nil
		}
		return math.Inf(sign(meanD)), 0, nil
	}
	tStat = meanD / (sd / math.Sqrt(float64(n)))
	df := float64(n - 1)
	pValue = 2 * studentTSurvival(math.Abs(tStat), df)
	return tStat, pValue, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTSurvival returns P(T > t) for a Student t distribution with df
// degrees of freedom, computed via the regularized incomplete beta function.
func studentTSurvival(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regularizedIncompleteBeta(df/2, 0.5, x)
}

// studentTQuantile returns the p-quantile of the Student t distribution with
// df degrees of freedom via bisection on the CDF. p must be in (0.5, 1).
func studentTQuantile(p, df float64) float64 {
	if p <= 0.5 {
		return 0
	}
	lo, hi := 0.0, 1e6
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		cdf := 1 - studentTSurvival(mid, df)
		if cdf < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10*(1+lo) {
			break
		}
	}
	return (lo + hi) / 2
}

// regularizedIncompleteBeta computes I_x(a, b) using the continued-fraction
// expansion (Numerical Recipes style), accurate to ~1e-12 for the parameter
// ranges used by the t-test.
func regularizedIncompleteBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	lnBeta := la + lb - lab
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-lnBeta) / a
	if x > (a+1)/(a+b+2) {
		// Use the symmetry relation for faster convergence.
		return 1 - regularizedIncompleteBeta(b, a, 1-x)
	}
	// Lentz's algorithm for the continued fraction.
	const tiny = 1e-300
	c := 1.0
	d := 1 - (a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	result := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		// Even step.
		numer := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 + numer*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + numer/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		result *= d * c
		// Odd step.
		numer = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 + numer*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + numer/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		delta := d * c
		result *= delta
		if math.Abs(delta-1) < 1e-14 {
			break
		}
	}
	return front * result
}
