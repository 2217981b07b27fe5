// Command bench is the repository's one benchmark. It generates its inputs
// from a seed, builds each workload's system under test from them, checks the
// outputs, runs the workload in a closed loop for a fixed time untraced (the
// end-to-end metrics) and once more traced (the per-layer metrics, measured
// from outside around calls into each layer's exported functions), prints
// every metric by name with its unit, and writes result.json and one trace
// file per workload. BENCHMARK.json at the repository root describes it;
// README.md in this directory defines every workload and metric.
//
//	go run ./bench -seed 42                       # all six workloads, both passes
//	go run ./bench -workload rmat-hub -trace 0    # one workload, end-to-end only
//	go run ./bench -compare base.json new.json    # verdict per metric and workload
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} for the last workload run:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1,
// both when the flag is left out. Any failed op or output check makes the
// process exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads lists the benchmark's workloads in the order they run. The
// "why" lines are BENCHMARK.json's.
var workloads = []workloadSpec{
	{
		name: "rmat-tail", primary: famOnline, tail: 0.90,
		why:  "typical online query: budgeted 2SBound on low-degree nodes; topk/bounds/bca do the work, walk does none",
		make: func() workload { return &rmatWorkload{variant: "tail"} },
	},
	{
		name: "rmat-hub", primary: famOnline, tail: 0.90,
		why:  "round-capped 2SBound on the highest-degree nodes: per-round Stage-II refinement of a large t-neighbourhood dominates",
		make: func() workload { return &rmatWorkload{variant: "hub"} },
	},
	{
		name: "rmat-exact", primary: famExact, tail: 0.90,
		why:  "exact full-graph solves: walk matvec and core.Combine/TopN do the work; bypasses the online searcher",
		make: func() workload { return &rmatWorkload{variant: "exact"} },
	},
	{
		name: "rmat-packed", primary: famOnline, tail: 0.90,
		why:  "same searcher and kernels over varint-packed rows: trades resident memory against row decode time",
		make: func() workload { return &rmatWorkload{variant: "packed"} },
	},
	{
		name: "bibnet-serve", primary: famOnline, tail: 0.95,
		why:  "small graph over real loopback HTTP with mutation batches beside reads: per-request serving overhead dominates",
		make: func() workload { return &serveWorkload{} },
	},
	{
		name: "bibnet-remote", primary: famOnline, tail: 0.95,
		why:  "warm 2SBound through the rowserve session and cache over two HTTP stripe workers, plus Distributed exact solves",
		make: func() workload { return &remoteWorkload{} },
	},
}

// config is what one invocation runs with.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	size    sizing
}

func (c config) timed() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// traceFlag is -trace: unset runs both passes and prints both metric sets;
// 0/false runs and prints the end-to-end metrics only; 1/true runs both
// passes and prints the per-layer metrics. It takes its value as a separate
// argument too ("--trace 1"), which a bool flag would not.
type traceFlag string

func (t *traceFlag) String() string { return string(*t) }

func (t *traceFlag) Set(v string) error {
	switch v {
	case "0", "false":
		*t = "0"
	case "1", "true":
		*t = "1"
	default:
		return fmt.Errorf("want 0 or 1")
	}
	return nil
}

// resultFile is result.json: the run's metadata and one report per workload.
type resultFile struct {
	Seed        int64             `json:"seed"`
	Commit      string            `json:"commit"`
	GoVersion   string            `json:"go_version"`
	NumCPU      int               `json:"nproc"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Seconds     float64           `json:"seconds_per_timed_run"`
	Traced      bool              `json:"traced"`
	WarmupNote  string            `json:"warmup_policy"`
	StartedAt   string            `json:"started_at"`
	TotalWallS  float64           `json:"total_wall_s"`
	Workloads   []*workloadReport `json:"workloads"`
	Correct     bool              `json:"correct"`
	TotalFailed int               `json:"failed"`
}

// finalLine is the driver-facing result: the last line of standard output.
type finalLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		seed     = flag.Int64("seed", 42, "seed every input is generated from")
		only     = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seconds  = flag.Float64("seconds", 10, "length of each workload's timed run")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare result files: -compare BASE[,BASE...] NEW[,NEW...]")
		manifest = flag.String("benchmark", "BENCHMARK.json", "benchmark description (bounds for -compare)")
		trace    traceFlag
	)
	flag.Var(&trace, "trace", "0: end-to-end metrics only; 1: per-layer metrics; unset: both")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two arguments: BASE[,BASE...] NEW[,NEW...]")
		}
		regressed, err := runCompare(os.Stdout, *manifest, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatalf("compare: %v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	selected, err := selectWorkloads(*only)
	if err != nil {
		fatalf("%v", err)
	}
	// Kernels and clients get the machine's cores up to four, so that runs
	// on larger hosts stay comparable with the two-core sandbox.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg := config{seed: *seed, seconds: *seconds, traced: trace != "0", size: fullSize}
	res, err := runAll(os.Stdout, selected, cfg, *outDir)
	if err != nil {
		fatalf("%v", err)
	}
	last := res.Workloads[len(res.Workloads)-1]
	line := finalLine{Correct: last.Failed == 0, Attempted: last.Attempted, Failed: last.Failed, Metrics: metrics{}}
	if trace != "1" {
		for k, v := range last.EndToEnd {
			line.Metrics[k] = v
		}
	}
	if trace != "0" {
		for k, v := range last.PerLayer {
			line.Metrics[k] = v
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func selectWorkloads(only string) ([]workloadSpec, error) {
	if only == "" {
		return workloads, nil
	}
	var out []workloadSpec
	for _, name := range strings.Split(only, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// runAll runs the selected workloads, prints their metrics and writes
// result.json and the trace files.
func runAll(out io.Writer, selected []workloadSpec, cfg config, outDir string) (*resultFile, error) {
	began := time.Now()
	res := &resultFile{
		Seed: cfg.seed, Commit: gitCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Seconds: cfg.seconds, Traced: cfg.traced,
		StartedAt:  began.UTC().Format(time.RFC3339),
		WarmupNote: fmt.Sprintf("after the last set-up, untimed: the first %d ops of the op list (bibnet-remote: the whole list, its cold pass), then a forced GC before each timed run", cfg.size.warmup),
		Correct:    true,
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	for _, spec := range selected {
		rep, tr, err := runWorkload(spec, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		printReport(out, rep)
		res.Workloads = append(res.Workloads, rep)
		res.TotalFailed += rep.Failed
		res.Correct = res.Correct && rep.Failed == 0
		if tr != nil {
			if err := tr.write(filepath.Join(outDir, "trace-"+spec.name+".json")); err != nil {
				return nil, err
			}
		}
	}
	res.TotalWallS = time.Since(began).Seconds()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(outDir, "result.json"), append(data, '\n'), 0o644)
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printReport(out io.Writer, rep *workloadReport) {
	fmt.Fprintf(out, "== %s: %d ops in %.2fs, %d client(s), samples %v, op list %d/%d covered, tail = p%.0f of %s ops, %d failed of %d, wall %.1fs\n",
		rep.Name, rep.Ops, rep.TimedS, rep.Clients, rep.Samples, rep.ListCovered, rep.ListLen,
		rep.TailPercentile*100, rep.Primary, rep.Failed, rep.Attempted, rep.WallS)
	for _, f := range rep.Failures {
		fmt.Fprintf(out, "   FAILED %s\n", f)
	}
	printMetrics := func(ms metrics) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "   %-34s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	printMetrics(rep.EndToEnd)
	printMetrics(rep.PerLayer)
}
