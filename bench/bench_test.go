package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test runs every workload at toy size, traced. It asserts names,
// units, counts and correctness, never a timing.

func toyConfig(seed int64) config {
	return config{seed: seed, seconds: 0.15, traced: true, size: toySize}
}

func runToy(t *testing.T, seed int64) map[string]*workloadReport {
	t.Helper()
	res, err := runAll(io.Discard, workloads, toyConfig(seed), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*workloadReport{}
	for _, rep := range res.Workloads {
		out[rep.Name] = rep
	}
	return out
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	// The catalogue in spec.go and BENCHMARK.json are the same list.
	var declared []metricDef
	for _, e := range bf.EndToEnd {
		declared = append(declared, e.metricDef)
	}
	sameDefs(t, "end_to_end", declared, endToEnd)
	sameDefs(t, "per_layer", bf.PerLayer, perLayer())

	first, second := runToy(t, 42), runToy(t, 42)
	for _, spec := range workloads {
		rep := first[spec.name]
		if rep == nil {
			t.Fatalf("%s: no report", spec.name)
		}
		if rep.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %v", spec.name, rep.Failed, rep.Attempted, rep.Failures)
		}
		checkEmitted(t, spec.name, rep.EndToEnd, endToEnd, true)
		checkEmitted(t, spec.name, rep.PerLayer, perLayer(), false)
		for _, d := range perLayer() {
			a, b := rep.PerLayer[d.Name].Value, second[spec.name].PerLayer[d.Name].Value
			if d.Exact && a != b {
				t.Errorf("%s: count metric %s read %v then %v for the same seed", spec.name, d.Name, a, b)
			}
		}
	}
	if first["rmat-hub"].PerLayer["topk.rounds_mean"].Value == 0 {
		t.Error("rmat-hub: the online probe recorded no rounds")
	}
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", what, i, got[i], want[i])
		}
	}
}

// checkEmitted: every metric of defs is present once with its unit and a
// finite value, and nothing else is.
func checkEmitted(t *testing.T, workload string, got metrics, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", workload, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is not finite: %v", workload, d.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s must be positive, is %v", workload, d.Name, m.Value)
		}
	}
}

// opList renders the generated op list of a workload.
func opList(t *testing.T, spec workloadSpec, seed int64) string {
	t.Helper()
	w := spec.make()
	if err := w.generate(seed, toySize); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	switch w := w.(type) {
	case *rmatWorkload:
		for _, o := range w.ops {
			fmt.Fprint(&b, o.family, o.req.Query.Nodes)
		}
	case *serveWorkload:
		for _, o := range w.ops {
			fmt.Fprint(&b, o.family, string(o.body))
		}
	case *remoteWorkload:
		for _, o := range w.ops {
			fmt.Fprint(&b, o.family, o.node)
		}
	}
	return b.String()
}

func TestSeedDeterminesTheInputs(t *testing.T) {
	for _, spec := range workloads {
		a, again, b := opList(t, spec, 42), opList(t, spec, 42), opList(t, spec, 7)
		if a == "" || a != again {
			t.Errorf("%s: the same seed gave different op lists", spec.name)
		}
		if a == b {
			t.Errorf("%s: seeds 42 and 7 gave the same op list", spec.name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},  // nested child
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps child 2
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // sticks out of the parent
		{ID: 5, Parent: 2, StartNS: 15, EndNS: 25},  // grandchild: charged to 2, not to 1
		{ID: 6, Parent: 3, StartNS: 30, EndNS: 60},  // covers its parent entirely
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 0, 4: 30, 5: 10, 6: 30}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([...], n=4) from CPython 3.12.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, [3]float64{10, 23, 38}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name      string
		base, cur []float64
		better    string
		want      string
	}{
		{"within bound", steady, []float64{104, 105, 103, 104, 104}, "lower", "ok"},
		{"worse beyond bound", steady, []float64{120, 121, 119, 120, 120}, "lower", "regressed"},
		{"higher is better", steady, []float64{80, 81, 79, 80, 80}, "higher", "regressed"},
		{"noisy and overlapping", []float64{100, 140, 80, 120, 60}, []float64{105, 150, 70, 130, 90}, "lower", "unresolved"},
		{"noisy but every run better", []float64{100, 140, 80, 120, 90}, []float64{50, 70, 40, 60, 30}, "lower", "ok"},
		{"single runs", []float64{100}, []float64{150}, "lower", "regressed"},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.cur, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReportsRegressionsAndChangedCounts(t *testing.T) {
	write := func(name string, p50, recall float64) string {
		res := resultFile{Workloads: []*workloadReport{{
			Name:     "rmat-hub",
			EndToEnd: metrics{"p50_ms": {Value: p50, Unit: "ms"}},
			PerLayer: metrics{"score_recall_at_k": {Value: recall, Unit: "ratio"}},
		}}}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	manifest := filepath.Join("..", "BENCHMARK.json")
	base := write("base.json", 100, 0.9)
	var out bytes.Buffer
	regressed, err := runCompare(&out, manifest, []string{base}, []string{write("same.json", 101, 0.9)})
	if err != nil || regressed {
		t.Fatalf("a 1%% slower run: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err = runCompare(&out, manifest, []string{base}, []string{write("slow.json", 200, 0.8)})
	if err != nil || !regressed {
		t.Fatalf("a 2x slower run: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	for _, want := range []string{"regressed", "changed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
