// Command benchmark is the repository's ruler: five named workloads, the
// end-to-end metrics a user of the engine or of blossomd sees, and in a
// separate traced run the per-layer metrics. See README.md for the
// definitions and BENCHMARK.json for the names, units and bounds.
//
//	bash benchmark/run.sh                                    # all workloads, untraced then traced
//	bash benchmark/run.sh -workload paper-flat -seed 7       # one run, one JSON line last
//	bash benchmark/run.sh -aa                                # same code twice, differences against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// declaration mirrors BENCHMARK.json.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclaration(root string) (*declaration, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// contractLine is the last line of a single run's standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all, each in a fresh process)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs: documents, query texts and schedule")
		seconds      = flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		scale        = flag.Float64("scale", defaultScale, "corpus size as a fraction of the paper's node counts")
		trace        = flag.String("trace", "", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics); default 0 for one workload, both for all")
		aa           = flag.Bool("aa", false, "run every workload twice on the same code and compare each end-to-end metric with its bound")
		jsonPath     = flag.String("json", "", "write the detailed result here (default for all workloads: benchmark/out/result.json)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatalf("-trace wants 0 or 1, got %q", *trace)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	root, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	decl, err := readDeclaration(root)
	if err != nil {
		fatalf("%v (run from the repository root, e.g. with benchmark/run.sh)", err)
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		fatalf("%v", err)
	}
	if *workloadName != "" {
		if *aa {
			fatalf("-aa runs all workloads; do not combine it with -workload")
		}
		cfg := runConfig{
			Workload: *workloadName, Seed: *seed, Seconds: *seconds, Scale: *scale, Trace: *trace == "1",
			Root: root, Daemon: filepath.Join(filepath.Dir(self), "blossomd"), Log: os.Stderr,
		}
		os.Exit(single(cfg, *jsonPath))
	}
	s := &suite{self: self, root: root, decl: decl, seed: *seed, seconds: *seconds, scale: *scale}
	if *aa {
		os.Exit(s.runAA())
	}
	out := *jsonPath
	if out == "" {
		out = filepath.Join(root, "benchmark", "out", "result.json")
	}
	os.Exit(s.runAll(*trace, out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	runCleanups()
	os.Exit(2)
}

// single runs one workload in this process and prints its metrics, the
// contract's JSON object last.
func single(cfg runConfig, jsonPath string) int {
	res, err := runWorkload(cfg)
	runCleanups()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.Workload, err)
		return 1
	}
	printRun(res)
	if jsonPath != "" {
		data, _ := json.MarshalIndent(res, "", "  ")
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	fmt.Println(string(line))
	return 0
}

// printRun prints every metric of a run by name with its unit.
func printRun(r *runResult) {
	mode := "untraced"
	specs := endToEnd
	if r.Traced {
		mode, specs = "traced", perLayer
	}
	fmt.Printf("workload %s (%s): seed %d, scale %g, %d elements, %d clients, closed loop, %g s window\n",
		r.Workload, mode, r.Seed, r.Scale, r.Elements, r.Clients, r.Seconds)
	for _, s := range specs {
		fmt.Printf("  %-30s %16.6g %s\n", s.Name, r.Metrics[s.Name].Value, s.Unit)
	}
	fmt.Printf("  %-30s %16.6g ratio (%d failed of %d attempted)\n", "fail_ratio", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	fmt.Printf("  %-30s %16d count (%d beyond p95)\n", "samples", r.Samples, r.BeyondP95)
	classes := make([]string, 0, len(r.ClassMS))
	for c := range r.ClassMS {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("  class %-24s %16.6g ms\n", c, r.ClassMS[c])
	}
	for _, u := range r.Unresolved {
		fmt.Printf("  UNRESOLVED %s\n", u)
	}
	for _, n := range r.Notes {
		fmt.Printf("  NOTE %s\n", n)
	}
}

// suite runs workloads in fresh child processes: the plan cache, the
// feedback store and the metrics registry are process singletons, so a
// workload must not inherit another's.
type suite struct {
	self, root string
	decl       *declaration
	seed       int64
	seconds    float64
	scale      float64
}

func (s *suite) child(workload string, traced bool) (*runResult, error) {
	tmp, err := os.CreateTemp(filepath.Join(s.root, ".bench_build"), "result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(s.self, "-workload", workload, "-seed", fmt.Sprint(s.seed), "-seconds", fmt.Sprint(s.seconds),
		"-scale", fmt.Sprint(s.scale), "-trace", t, "-json", tmp.Name())
	cmd.Dir = s.root
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	forget := onExit(func() { cmd.Process.Signal(syscall.SIGTERM); cmd.Wait() })
	err = cmd.Wait()
	forget()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// environment describes where the numbers were taken.
func (s *suite) environment() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", s.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpu, "scale": s.scale, "seed": s.seed, "seconds": s.seconds,
	}
}

// runAll runs every workload untraced and traced, prints every metric by
// name and writes result.json.
func (s *suite) runAll(trace, out string) int {
	var runs []*runResult
	code := 0
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			if (trace == "0" && traced) || (trace == "1" && !traced) {
				continue
			}
			r, err := s.child(w, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
				continue
			}
			if !r.Correct {
				code = 1
			}
			runs = append(runs, r)
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	data, _ := json.MarshalIndent(map[string]any{"env": s.environment(), "runs": runs}, "", "  ")
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", out)
	return code
}

// runAA runs every workload twice, untraced, on the same code, and prints
// how far apart the two sets are beside each metric's bound.
func (s *suite) runAA() int {
	code := 0
	var lines []string
	for _, w := range workloadNames {
		var pair [2]*runResult
		for i := range pair {
			r, err := s.child(w, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			pair[i] = r
		}
		for _, m := range s.decl.EndToEnd {
			a, b := pair[0].Metrics[m.Name].Value, pair[1].Metrics[m.Name].Value
			diff := (b - a) / a
			verdict := "ok"
			if math.Abs(diff) > m.Bound || math.IsNaN(diff) {
				verdict = "OUTSIDE BOUND"
				code = 1
			}
			lines = append(lines, fmt.Sprintf("%-16s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s", w, m.Name, a, b, 100*diff, 100*m.Bound, verdict))
		}
		for i, r := range pair {
			if r.Failed != 0 || len(r.Unresolved) != 0 {
				lines = append(lines, fmt.Sprintf("%-16s run %d: %d failed, unresolved: %s", w, i+1, r.Failed, strings.Join(r.Unresolved, "; ")))
				code = 1
			}
		}
	}
	fmt.Printf("\nA/A: two runs of the same code (seed %d, %g s windows)\n", s.seed, s.seconds)
	fmt.Printf("%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, l := range lines {
		fmt.Println(l)
	}
	return code
}
