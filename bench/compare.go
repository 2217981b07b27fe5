package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// -compare: one row per end-to-end metric and workload with the base and new
// medians, their ratio, the bound from BENCHMARK.json and a verdict. Each
// side is one or more result.json files of the same benchmark; with several
// runs a side the run-to-run spread decides between "ok" and "unresolved".

// quartiles returns the three cut points Python's statistics.quantiles(xs,
// n=4) gives (the exclusive method), which is what the benchmark's acceptance
// rule is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := max(1, min(i*(m+1)/4, m-1))
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 for a single run.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// side holds one side's values: workload → metric → one value per run.
type side map[string]map[string][]float64

func loadSide(paths []string) (side, error) {
	out := side{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res resultFile
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range res.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for _, ms := range []metrics{w.EndToEnd, w.PerLayer} {
				for name, v := range ms {
					out[w.Name][name] = append(out[w.Name][name], v.Value)
				}
			}
		}
	}
	return out, nil
}

// verdict applies the regression rule to one bounded metric: regressed when
// the new median is worse than the base median by more than the bound;
// unresolved when either side's spread exceeds the bound, unless every new
// run reads better than every base run; ok otherwise.
func verdict(base, cur []float64, better string, bound float64) string {
	worse := ratio(median(cur)-median(base), median(base))
	if better == "higher" {
		worse = -worse
	}
	if max(spread(base), spread(cur)) > bound {
		allBetter := true
		for _, b := range base {
			for _, c := range cur {
				if (better == "lower" && c >= b) || (better == "higher" && c <= b) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > bound {
		return "regressed"
	}
	return "ok"
}

func runCompare(out io.Writer, manifest string, basePaths, newPaths []string) (regressed bool, err error) {
	bf, err := loadBenchmarkFile(manifest)
	if err != nil {
		return false, err
	}
	base, err := loadSide(basePaths)
	if err != nil {
		return false, err
	}
	cur, err := loadSide(newPaths)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbound\tverdict")
	row := func(w, name string, b, c []float64, bound, v string) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%s\t%s\n", w, name, median(b), median(c), ratio(median(c), median(b)), bound, v)
	}
	for _, spec := range workloads {
		b, c := base[spec.name], cur[spec.name]
		if b == nil || c == nil {
			continue
		}
		for _, e := range bf.EndToEnd {
			if len(b[e.Name]) == 0 || len(c[e.Name]) == 0 {
				continue
			}
			v := verdict(b[e.Name], c[e.Name], e.Better, e.Bound)
			regressed = regressed || v == "regressed"
			row(spec.name, e.Name, b[e.Name], c[e.Name], fmt.Sprintf("%.0f%%", e.Bound*100), v)
		}
		// The family metrics carry no bound; counts must repeat exactly.
		for _, d := range perLayer() {
			if len(b[d.Name]) == 0 || len(c[d.Name]) == 0 {
				continue
			}
			switch {
			case d.Exact && !sameValues(b[d.Name], c[d.Name]):
				row(spec.name, d.Name, b[d.Name], c[d.Name], "exact", "changed")
			case d.Exact && isFamilyMetric(d.Name):
				row(spec.name, d.Name, b[d.Name], c[d.Name], "exact", "ok")
			case isFamilyMetric(d.Name):
				row(spec.name, d.Name, b[d.Name], c[d.Name], "-", "-")
			}
		}
	}
	return regressed, tw.Flush()
}

func isFamilyMetric(name string) bool {
	for _, d := range familyMetrics {
		if d.Name == name {
			return true
		}
	}
	return false
}

// sameValues reports whether every run on both sides read the same value.
func sameValues(a, b []float64) bool {
	for _, x := range append(append([]float64(nil), a...), b...) {
		if x != a[0] {
			return false
		}
	}
	return true
}
