package main

import (
	"fmt"
	"io"
	"time"
)

// metricSpec names one metric; the lists below are what BENCHMARK.json
// declares (a test holds the two together).
type metricSpec struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload of an untraced run.
var endToEnd = []metricSpec{
	{"geomean_ms", "ms"},
	{"p95_ms", "ms"},
	{"qps", "1/s"},
	{"setup_s", "s"},
	{"heap_bytes_per_node", "bytes"},
}

// perLayer are the single-layer metrics of a traced run. A layer a
// workload does not pass through reports 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"xmltree.parse_s", "s"},
		{"index.build_s", "s"},
		{"xmltree.stats_s", "s"},
		{"xpath.parse_us", "us"},
		{"flwor.parse_us", "us"},
		{"core.build_us", "us"},
		{"plan.build_us", "us"},
		{"exec.plan_cache_hit_ratio", "ratio"},
		{"plan.execute_ms", "ms"},
		{"plan.scanned_per_result", "count"},
		{"exec.finish_ms", "ms"},
		{"result.serialize_ms", "ms"},
		{"result.bytes_per_op", "bytes"},
		{"exec.replans", "count"},
		{"exec.strategy_changes", "count"},
		{"exec.nav_fallbacks", "count"},
		{"server.overhead_ms", "ms"},
		{"server.response_bytes", "bytes"},
		{"server.rss_mb", "MB"},
		{"segstore.ingest_s", "s"},
		{"segstore.bytes_per_xml_byte", "ratio"},
		{"segstore.open_s", "s"},
		{"segstore.materialize_ms", "ms"},
		{"trace.overhead_ratio", "ratio"},
	}
	for _, g := range gridStrategies {
		specs = append(specs, metricSpec{"strategy." + g.name + ".geomean_ms", "ms"}, metricSpec{"strategy." + g.name + ".dnf", "count"})
	}
	return specs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is everything one run of one workload depends on.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // measured window
	Scale    float64 // fraction of the paper's node counts
	Trace    bool
	Root     string // checkout root: outputs under benchmark/out, scratch under .bench_build
	Daemon   string // path of the built blossomd (serve-http)

	SetupRepeats   int // cold set-ups; setup_s is their median
	WarmExecutions int // executions of every class before the window may open
	Log            io.Writer
}

const (
	defaultSetupRepeats   = 5
	minSetupSeconds       = 0.25
	maxSetupRepeats       = 101
	defaultWarmExecutions = 40 // the feedback trigger fires at the 33rd
	// maxSettlePasses bounds the extra warm-up passes spent waiting for a
	// pass without a replan.
	maxSettlePasses = 20
	// opBudget is the per-operation latency budget; a slower operation
	// counts as failed.
	opBudget = 10 * time.Second
)

// runResult is the outcome of one run.
type runResult struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Scale        float64           `json:"scale"`
	Seconds      float64           `json:"seconds"`
	Traced       bool              `json:"traced"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Metrics      map[string]metric `json:"metrics"`
	Clients      int               `json:"clients"`
	Elements     int               `json:"elements"`
	XMLBytes     int               `json:"xml_bytes"`
	Samples      int               `json:"samples"`
	BeyondP95    int               `json:"samples_beyond_p95"`
	Replans      int64             `json:"replans_in_window"`
	ScheduleHash string            `json:"schedule_hash"`
	// ClassMS is each class's typical latency in the window (see
	// samples.classLatencies): the terms of geomean_ms, kept so that a
	// moved geomean can be traced to the classes that moved it.
	ClassMS map[string]float64 `json:"class_ms"`
	// Unresolved lists why the timing metrics of this run must not be
	// read as a measurement (a plan changing strategy inside the window,
	// too few samples beyond the percentile).
	Unresolved []string   `json:"unresolved,omitempty"`
	Notes      []string   `json:"notes,omitempty"`
	Grid       []gridCell `json:"grid,omitempty"`
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, s := range endToEnd {
		m[s.Name] = s.Unit
	}
	for _, s := range perLayer {
		m[s.Name] = s.Unit
	}
	return m
}()

func (r *runResult) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (c *runConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// window is the latency record of one measured window.
type window struct {
	samples
	elapsed time.Duration
	next    int // schedule position after the last operation (embedded)
	failed  int
	// counters inside the window
	replans, cacheHits, cacheMisses, navFallbacks int64
	bytes                                         int64 // serialized result (embedded) or response body (HTTP) bytes
	xmlBytes                                      int64 // HTTP: bytes of the replies' xml field
	overheadMS                                    []float64
}

// summarize turns a window into the three latency/throughput metrics and
// records whether they are resolved.
func (r *runResult) summarize(w *workload, win *window) {
	r.Samples = len(win.ms)
	r.Attempted += len(win.ms)
	r.Failed += win.failed
	r.Replans = win.replans
	p95, beyond := percentile(win.ms, 0.95)
	r.BeyondP95 = beyond
	typical := win.classLatencies(len(w.Classes), win.elapsed.Seconds())
	r.ClassMS = map[string]float64{}
	if len(typical) == len(w.Classes) { // every class ran
		for i, c := range w.Classes {
			r.ClassMS[c] = typical[i]
		}
	}
	if !r.Traced {
		r.set("geomean_ms", geomean(typical))
		r.set("p95_ms", p95)
		r.set("qps", float64(len(win.ms))/win.elapsed.Seconds())
	}
	if beyond < minBeyond {
		r.Unresolved = append(r.Unresolved, fmt.Sprintf("p95_ms: only %d samples beyond it (want >= %d)", beyond, minBeyond))
	}
}

// strategyChanges compares the strategy every distinct operation executed
// under just before the window with the one just after it. A replan that
// re-chooses the same strategy leaves the regime as it was; one that
// changes it splits the window in two, and its timing metrics must not be
// read as one measurement.
func (r *runResult) strategyChanges(w *workload, before, after []string) {
	changes := 0
	for i := range w.Ops {
		if before[i] != after[i] {
			changes++
			r.Unresolved = append(r.Unresolved, fmt.Sprintf("timing: strategy of %s changed inside the window, %s to %s: %s",
				w.Classes[w.Ops[i].Class], before[i], after[i], w.Ops[i].Query))
		}
	}
	if r.Traced {
		r.set("exec.strategy_changes", float64(changes))
	}
}

// runWorkload generates the workload from the seed and runs it.
func runWorkload(cfg runConfig) (*runResult, error) {
	if cfg.SetupRepeats <= 0 {
		cfg.SetupRepeats = defaultSetupRepeats
	}
	if cfg.WarmExecutions <= 0 {
		cfg.WarmExecutions = defaultWarmExecutions
	}
	t0 := time.Now()
	w, err := buildWorkload(cfg.Workload, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: w.Name, Seed: cfg.Seed, Scale: cfg.Scale, Seconds: cfg.Seconds, Traced: cfg.Trace,
		Metrics: map[string]metric{}, Elements: w.elements(), XMLBytes: w.xmlBytes(), ScheduleHash: w.scheduleHash(),
	}
	if cfg.Trace {
		for _, s := range perLayer {
			res.set(s.Name, 0)
		}
	}
	cfg.logf("%s: seed %d scale %g: %d documents, %d elements, %d XML bytes, %d distinct ops, %d ops/pass (generated in %.2fs)",
		w.Name, cfg.Seed, cfg.Scale, len(w.Docs), res.Elements, res.XMLBytes, len(w.Ops), len(w.Schedule), time.Since(t0).Seconds())
	if err := fillExpected(w); err != nil {
		return nil, err
	}
	goldenFailed, err := checkGolden(w, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	if w.HTTP {
		err = runHTTP(cfg, w, res)
	} else {
		err = runEmbedded(cfg, w, res)
	}
	if err != nil {
		return nil, err
	}
	if goldenFailed > 0 {
		res.Failed += goldenFailed
		res.Notes = append(res.Notes, fmt.Sprintf("%d oracle answers differ from golden.json", goldenFailed))
	}
	res.Correct = res.Failed == 0
	return res, nil
}
