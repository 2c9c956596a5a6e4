package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden.json from the generators and the oracle")

func TestPercentileArithmetic(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	// Every class weighs the same: halving the 2 ms class moves the
	// geomean as much as halving the 450 ms one.
	base := geomean([]float64{2, 450})
	if a, b := geomean([]float64{1, 450}), geomean([]float64{2, 225}); math.Abs(a-b) > 1e-9 || a >= base {
		t.Errorf("geomean does not weigh classes equally: %v vs %v (base %v)", a, b, base)
	}
	if got := geomean([]float64{3, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}

	// Nearest rank, and the samples-beyond rule: 200 samples leave exactly
	// ten beyond the 95th percentile, 199 leave nine.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200 … 1, unsorted on purpose
	}
	v, beyond := percentile(xs, 0.95)
	if v != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
	if beyond < minBeyond {
		t.Errorf("200 samples must resolve p95")
	}
	v, beyond = percentile(xs[:199], 0.95) // 200 … 2
	if v != 191 || beyond != 9 {
		t.Errorf("p95 of 2..200 = %v with %d beyond, want 191 with 9", v, beyond)
	}
	if xs[0] != 200 {
		t.Errorf("percentile sorted its input in place")
	}

}

func TestClassLatencies(t *testing.T) {
	// Class 0 runs twice in each of the ten slices of a 10 s window, at
	// 1 ms and 3 ms (one beside a collection, one not): every slice means
	// 2 ms whichever way the two modes fall, except a disturbed slice at
	// 50 ms that the median across slices discards. Class 2 runs once;
	// class 1 never and is left out.
	var s samples
	for k := 0; k < latencySlices; k++ {
		at := time.Duration(k)*time.Second + time.Millisecond
		lo, hi := time.Millisecond, 3*time.Millisecond
		if k == 4 {
			lo, hi = 50*time.Millisecond, 50*time.Millisecond
		}
		s.add(0, lo, at)
		s.add(0, hi, at+500*time.Millisecond)
	}
	s.add(2, 7*time.Millisecond, 9999*time.Millisecond)
	got := s.classLatencies(3, 10)
	if len(got) != 2 || math.Abs(got[0]-2) > 1e-9 || math.Abs(got[1]-7) > 1e-9 {
		t.Errorf("classLatencies = %v, want [2 7]", got)
	}
}

func TestUnresolvedRules(t *testing.T) {
	w := &workload{Classes: []string{"a"}, Ops: []op{{Query: "q"}}}
	r := &runResult{Metrics: map[string]metric{}}
	win := &window{elapsed: time.Second}
	for i := 0; i < 199; i++ {
		win.add(0, time.Duration(i+1)*time.Millisecond, time.Duration(i)*time.Millisecond)
	}
	r.summarize(w, win)
	if len(r.Unresolved) != 1 {
		t.Fatalf("199 samples must leave p95 unresolved, got %v", r.Unresolved)
	}
	r.strategyChanges(w, []string{"TS"}, []string{"TS"})
	if len(r.Unresolved) != 1 {
		t.Errorf("an unchanged strategy must not mark the run: %v", r.Unresolved)
	}
	r.strategyChanges(w, []string{"TS"}, []string{"NL"})
	if len(r.Unresolved) != 2 {
		t.Errorf("a strategy change inside the window must mark the run: %v", r.Unresolved)
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.add("op", -1, 0, 0, 0, 100)
	tr.add("Engine.Query", root, 0, 0, 10, 50)
	st := tr.add("stages", root, 0, 0, 50, 95)
	tr.add("Plan.Execute", st, 0, 0, 55, 90)
	rows, rootNS, selfSum := tr.layerTable()
	if rootNS != 100 || selfSum != 100 {
		t.Fatalf("root %d, self sum %d: the self times must partition the root span", rootNS, selfSum)
	}
	want := map[string]int64{"op": 15, "Engine.Query": 40, "stages": 10, "Plan.Execute": 35}
	for _, r := range rows {
		if r.SelfNS != want[r.Name] {
			t.Errorf("self time of %s = %d, want %d", r.Name, r.SelfNS, want[r.Name])
		}
	}
}

func TestScheduleFromSeed(t *testing.T) {
	const scale = 0.002
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, scale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, scale)
		c, _ := buildWorkload(name, 8, scale)
		if a.scheduleHash() != b.scheduleHash() {
			t.Errorf("%s: the same seed gave two schedules", name)
		}
		if a.scheduleHash() == c.scheduleHash() {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
		if a.Docs[0].SHA256 == c.Docs[0].SHA256 {
			t.Errorf("%s: seeds 7 and 8 generated the same document", name)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	cc, err := buildWorkload("compile-cold", 1, defaultScale)
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]bool{}
	for _, o := range cc.Ops {
		texts[o.Query] = true
	}
	if len(texts) != 4096 || len(cc.Classes) != 8 || len(cc.Schedule) != 4096 {
		t.Errorf("compile-cold: %d distinct texts, %d classes, %d ops per pass; want 4096, 8, 4096", len(texts), len(cc.Classes), len(cc.Schedule))
	}

	sh, err := buildWorkload("serve-http", 1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	flwor := 0
	for _, i := range sh.Schedule {
		if sh.Ops[i].FLWOR {
			flwor++
		}
	}
	if len(sh.Ops) != 36 || len(sh.Schedule) != 300 || flwor != 90 {
		t.Errorf("serve-http: %d ops, %d per pass, %d FLWOR; want 36, 300, 90 (a 70/30 mix)", len(sh.Ops), len(sh.Schedule), flwor)
	}

	// flwor-construct is about BlossomTree plans: at most two of its six
	// queries may route to the navigational fallback.
	fc, err := buildWorkload("flwor-construct", 1, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	e, err := loadEngine(fc)
	if err != nil {
		t.Fatal(err)
	}
	planned := 0
	for _, o := range fc.Ops {
		res, err := e.Query(o.Query)
		if err != nil {
			t.Fatalf("%s: %v", o.Query, err)
		}
		if res.NavReason() == "" {
			planned++
		}
	}
	if len(fc.Ops) != 6 || planned < 4 {
		t.Errorf("flwor-construct: %d of %d queries plan as BlossomTree, want at least 4 of 6", planned, len(fc.Ops))
	}
}

// TestDeclarationMatchesProgram holds BENCHMARK.json and the names the
// program emits together.
func TestDeclarationMatchesProgram(t *testing.T) {
	d, err := readDeclaration("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, declared []declaredMetric, emitted []metricSpec) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program emits %d", kind, len(declared), len(emitted))
			return
		}
		for i, m := range declared {
			if m.Name != emitted[i].Name || m.Unit != emitted[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, emitted[i].Name, emitted[i].Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd)
	check("per_layer", d.PerLayer, perLayer)
	var setup, largest float64
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
		largest = math.Max(largest, m.Bound)
	}
	if setup == 0 || setup != largest {
		t.Errorf("setup_s must be declared with the largest bound, has %v of %v", setup, largest)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", d.RunSeconds)
	}
}

// TestGolden regenerates the pinned seed's corpus and oracle answers at
// the default scale and compares them with golden.json.
func TestGolden(t *testing.T) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	if *update {
		g = goldenFile{Seed: 1, Scale: defaultScale, Workloads: map[string]goldenWorkload{}}
	}
	if g.Seed != 1 || g.Scale != defaultScale {
		t.Fatalf("golden.json pins seed %d at scale %g, want seed 1 at the default scale %g", g.Seed, g.Scale, defaultScale)
	}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, g.Seed, g.Scale)
		if err != nil {
			t.Fatal(err)
		}
		if err := fillExpected(w); err != nil {
			t.Fatal(err)
		}
		if *update {
			g.Workloads[name] = w.golden()
			continue
		}
		failed, err := checkGolden(w, g.Seed, g.Scale)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if failed != 0 {
			t.Errorf("%s: the oracle's answers to %d operations differ from golden.json", name, failed)
		}
	}
	if *update {
		data, _ := json.MarshalIndent(g, "", "  ")
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSmokeEveryWorkload runs all five workloads, untraced and traced, for
// a second at 1/200 of the paper's size — the real blossomd spawned and
// torn down included — and checks that every declared metric is reported
// and no operation fails.
func TestSmokeEveryWorkload(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	daemon := filepath.Join(root, "blossomd")
	if out, err := exec.Command("go", "build", "-o", daemon, "blossomtree/cmd/blossomd").CombinedOutput(); err != nil {
		t.Fatalf("build blossomd: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				Workload: name, Seed: 3, Seconds: 1, Scale: 0.005, Trace: traced, Root: root, Daemon: daemon,
				SetupRepeats: 2, WarmExecutions: 8, // plumbing, not regimes: the trigger at 33 is not reached
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d failed of %d attempted", name, traced, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] missing", name, traced, s.Name, s.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, s.Name, m.Value)
				}
			}
			if !traced {
				continue
			}
			data, err := os.ReadFile(filepath.Join(root, "benchmark", "out", name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Errorf("%s: the Chrome trace does not load: %v (%d events)", name, err, len(chrome.TraceEvents))
			}
			if _, err := os.Stat(filepath.Join(root, "benchmark", "out", name+".layers.txt")); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			hit := res.Metrics["exec.plan_cache_hit_ratio"].Value
			switch name {
			case "compile-cold":
				if hit > 0.01 {
					t.Errorf("compile-cold: plan cache hit ratio %v, want <= 0.01", hit)
				}
			case "paper-recursive", "paper-flat":
				if hit < 0.99 {
					t.Errorf("%s: plan cache hit ratio %v, want >= 0.99", name, hit)
				}
			}
		}
	}
	if n := len(cleanups.fns); n != 0 {
		t.Errorf("%d daemons or scratch directories left to clean up after the runs", n)
	}
	left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "*"))
	if len(left) != 0 {
		t.Errorf("scratch left behind: %v", left)
	}
}
