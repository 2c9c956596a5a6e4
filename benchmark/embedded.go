package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"blossomtree"
	"blossomtree/internal/core"
	"blossomtree/internal/flwor"
	"blossomtree/internal/index"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

// embedded drives one engine the way a developer embedding it does: one
// caller, Engine.Query with default options, waiting for each reply.
type embedded struct {
	cfg runConfig
	w   *workload
	eng *blossomtree.Engine
	// lay holds, in a traced run, the parsed documents with the index and
	// statistics built for the stage-by-stage replay.
	lay map[string]*docLayers
}

type docLayers struct {
	doc   *xmltree.Document
	index *index.TagIndex
	stats xmltree.Stats
}

func runEmbedded(cfg runConfig, w *workload, res *runResult) error {
	s := &embedded{cfg: cfg, w: w}
	res.Clients = 1
	// One caller on one processor: everything an operation causes, garbage
	// collection included, is then on the caller's clock. With a second
	// processor the collector runs beside the caller and how much of it the
	// latencies show depends on when that processor is free: identical runs
	// differed by 10 % in qps, against 3 % this way.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var err error
	var firstSetup float64
	if cfg.Trace {
		err = s.tracedSetup(res)
	} else {
		firstSetup, err = s.firstSetup(res)
	}
	if err != nil {
		return err
	}
	s.warmUp()
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		dur /= 2
	}
	before, _ := s.verify(0)
	runtime.GC()
	win := s.measure(dur)
	res.summarize(w, win)
	cfg.logf("%s: window %.2fs: %d ops (%d beyond p95), %d failed, %d replans, plan cache %d hits / %d misses",
		w.Name, win.elapsed.Seconds(), len(win.ms), res.BeyondP95, win.failed, win.replans, win.cacheHits, win.cacheMisses)
	after, wrong := s.verify(win.next)
	res.Attempted += len(w.Ops)
	res.Failed += wrong
	res.strategyChanges(w, before, after)
	if !cfg.Trace {
		return s.remainingSetups(firstSetup, res)
	}
	if lookups := win.cacheHits + win.cacheMisses; lookups > 0 {
		res.set("exec.plan_cache_hit_ratio", float64(win.cacheHits)/float64(lookups))
	}
	res.set("exec.replans", float64(win.replans))
	res.set("exec.nav_fallbacks", float64(win.navFallbacks))
	if err := s.tracedPasses(win.next, dur, win, res); err != nil {
		return err
	}
	if strings.HasPrefix(w.Name, "paper-") {
		s.strategyGrid(res)
	}
	return nil
}

// heapAfterGC returns the live heap: HeapAlloc after two collections (the
// second frees what the first's finalizers released).
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// answersFirstQueries runs, per document, the first operation that reads
// it and checks the answer: the end of a set-up.
func (s *embedded) answersFirstQueries(e *blossomtree.Engine) error {
	for _, d := range s.w.Docs {
		o := &s.w.Ops[s.w.firstOpOf(d.URI)]
		res, err := e.Query(o.Query)
		if err != nil {
			return fmt.Errorf("set-up: %s: %w", o.Query, err)
		}
		if res.Len() != o.Count || digest(res.XML()) != o.Digest {
			return fmt.Errorf("set-up: %s answered %d results, want %d with digest %016x", o.Query, res.Len(), o.Count, o.Digest)
		}
	}
	return nil
}

// coldSetup is one set-up as a developer pays it: XML text in, a fresh
// engine with every document loaded and one query per document answered
// correctly out.
func (s *embedded) coldSetup() (seconds float64, e *blossomtree.Engine, err error) {
	t0 := time.Now()
	if e, err = loadEngine(s.w); err != nil {
		return 0, nil, err
	}
	if err := s.answersFirstQueries(e); err != nil {
		return 0, nil, err
	}
	return time.Since(t0).Seconds(), e, nil
}

// firstSetup performs the set-up whose engine the run measures, and takes
// heap_bytes_per_node around it.
func (s *embedded) firstSetup(res *runResult) (seconds float64, err error) {
	before := heapAfterGC()
	seconds, s.eng, err = s.coldSetup()
	if err != nil {
		return 0, err
	}
	heap := heapAfterGC() - before
	res.set("heap_bytes_per_node", float64(heap)/float64(s.w.elements()))
	s.cfg.logf("%s: %d heap bytes for %d elements", s.w.Name, heap, s.w.elements())
	return seconds, nil
}

// remainingSetups repeats the cold set-up after the window has closed and
// reports setup_s as the median of all of them: SetupRepeats of them, and
// for a set-up of a millisecond or less as many more (at most
// maxSetupRepeats) as it takes to fill minSetupSeconds, because the median
// of five such times moves by more than the metric's bound. They run last
// because the process-wide plan cache keeps every engine that has answered
// a query reachable: set up first, they would multiply the live heap the
// measured window's collections have to mark.
func (s *embedded) remainingSetups(first float64, res *runResult) error {
	times := []float64{first}
	total := first
	for len(times) < s.cfg.SetupRepeats || (total < minSetupSeconds && len(times) < maxSetupRepeats) {
		sec, _, err := s.coldSetup()
		if err != nil {
			return err
		}
		times = append(times, sec)
		total += sec
	}
	res.set("setup_s", median(times))
	s.cfg.logf("%s: set-up median %.4fs of %d", s.w.Name, median(times), len(times))
	return nil
}

// tracedSetup is one set-up through the layers' own exported calls, so
// that parse, index build and statistics are timed apart.
func (s *embedded) tracedSetup(res *runResult) error {
	s.eng = blossomtree.NewEngine()
	s.lay = map[string]*docLayers{}
	var parse, build, stats time.Duration
	for _, d := range s.w.Docs {
		t0 := time.Now()
		doc, err := xmltree.ParseString(d.XML)
		if err != nil {
			return fmt.Errorf("parse %s: %w", d.URI, err)
		}
		t1 := time.Now()
		ix := index.Build(doc)
		t2 := time.Now()
		st := xmltree.ComputeStats(doc)
		t3 := time.Now()
		parse, build, stats = parse+t1.Sub(t0), build+t2.Sub(t1), stats+t3.Sub(t2)
		doc.Name = d.URI
		s.lay[d.URI] = &docLayers{doc: doc, index: ix, stats: st}
		s.eng.LoadDocument(d.URI, doc)
	}
	res.set("xmltree.parse_s", parse.Seconds())
	res.set("index.build_s", build.Seconds())
	res.set("xmltree.stats_s", stats.Seconds())
	return s.answersFirstQueries(s.eng)
}

// do runs one scheduled operation as the measured client does and checks
// its answer: the count always, the digest when the workload serializes.
func (s *embedded) do(o *op) (ok, nav bool, bytes int) {
	res, err := s.eng.Query(o.Query)
	if err != nil || res.Len() != o.Count {
		return false, false, 0
	}
	if s.w.Serialize {
		xml := res.XML()
		if digest(xml) != o.Digest {
			return false, false, len(xml)
		}
		bytes = len(xml)
	}
	return true, res.NavReason() != "", bytes
}

func replansTotal() int64 { return blossomtree.Metrics()["feedback_replans_total"] }

// warmUp runs whole passes until every class has run WarmExecutions times,
// then until a pass goes by without a feedback replan: ten of the twelve
// paper-recursive plans are replaced at their 33rd execution (one of them
// changing strategy), and a window that straddles that measures two
// regimes. Later replans recur every 32 executions and re-choose the same
// strategy; runResult.strategyChanges is what notices one that does not.
func (s *embedded) warmUp() {
	passes := s.w.WarmPasses
	if passes == 0 {
		passes = s.cfg.WarmExecutions
	}
	t0 := time.Now()
	for p := 0; p < passes+maxSettlePasses; p++ {
		before := replansTotal()
		for _, i := range s.w.Schedule {
			s.do(&s.w.Ops[i])
		}
		if p+1 >= passes && replansTotal() == before {
			s.cfg.logf("%s: warm-up %d passes in %.2fs, %d replans so far", s.w.Name, p+1, time.Since(t0).Seconds(), before)
			return
		}
	}
	s.cfg.logf("%s: warm-up did not settle: replans still occurring after %d passes", s.w.Name, passes+maxSettlePasses)
}

// measure cycles through the schedule for dur, timing every operation.
func (s *embedded) measure(dur time.Duration) *window {
	win := &window{}
	m0 := blossomtree.Metrics()
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; ; i++ {
		o := &s.w.Ops[s.w.Schedule[i%len(s.w.Schedule)]]
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		ok, nav, bytes := s.do(o)
		d := time.Since(t0)
		if !ok || d > opBudget {
			win.failed++
		}
		if nav {
			win.navFallbacks++
		}
		win.bytes += int64(bytes)
		win.add(o.Class, d, t0.Sub(start))
		win.next = (i + 1) % len(s.w.Schedule)
	}
	win.elapsed = time.Since(start)
	m1 := blossomtree.Metrics()
	win.replans = m1["feedback_replans_total"] - m0["feedback_replans_total"]
	win.cacheHits = m1["plan_cache_hits"] - m0["plan_cache_hits"]
	win.cacheMisses = m1["plan_cache_misses"] - m0["plan_cache_misses"]
	return win
}

// verify runs every distinct operation once, outside any timing, and
// checks count and digest of the full serialized result — also for the
// workloads whose measured operations only count their results. It
// returns the strategy each operation executed under (indexed like
// workload.Ops) and how many answered wrong. It walks the schedule from
// position from, where the measured loop stopped, so that it continues the
// cycle: in any other order compile-cold, which by construction never
// finds its plan cached, finds some, and a found plan with 32 executions
// behind it is replanned under another strategy by the lookup itself.
func (s *embedded) verify(from int) (strategies []string, wrong int) {
	strategies = make([]string, len(s.w.Ops))
	seen := make([]bool, len(s.w.Ops))
	for j := range s.w.Schedule {
		oi := s.w.Schedule[(from+j)%len(s.w.Schedule)]
		if seen[oi] {
			continue
		}
		seen[oi] = true
		o := &s.w.Ops[oi]
		r, err := s.eng.Query(o.Query)
		if err != nil || r.Len() != o.Count || digest(r.XML()) != o.Digest {
			wrong++
			s.cfg.logf("%s: WRONG ANSWER: %s", s.w.Name, o.Query)
			continue
		}
		headline, _, _ := strings.Cut(r.Plan(), "\n")
		strategies[oi] = strings.TrimPrefix(headline, "plan strategy: ")
	}
	return strategies, wrong
}

// traceAcc collects what the spans themselves do not carry.
type traceAcc struct {
	ops, planned     int
	bytes            int64
	scanned, results int64
	finishMS         []float64 // Engine.Query minus the stages the engine ran, per planned op
	queries          samples   // traced Engine.Query latencies
	failed           int
}

// tracedPasses re-runs the schedule with a span around every call into a
// layer: first the operation as the user issues it (Engine.Query, then
// Result.XML where the workload serializes), then the same query through
// the layers' exported calls one stage at a time. What happens inside
// Plan.Execute (nok, join, vexec, nestedlist) cannot be told apart from
// outside the program; that needs phase clocks inside it.
func (s *embedded) tracedPasses(from int, dur time.Duration, untraced *window, res *runResult) error {
	tr := newTracer()
	acc := &traceAcc{}
	deadline := tr.origin.Add(dur)
	for i := 0; i < len(s.w.Schedule) || time.Now().Before(deadline); i++ {
		s.tracedOp(tr, i, &s.w.Ops[s.w.Schedule[(from+i)%len(s.w.Schedule)]], acc)
	}
	tracedSeconds := time.Since(tr.origin).Seconds()
	res.Attempted += acc.ops
	res.Failed += acc.failed

	meanUS := func(names ...string) float64 {
		var all []float64
		for _, n := range names {
			all = append(all, tr.durations(n)...)
		}
		return mean(all) * 1000
	}
	res.set("xpath.parse_us", meanUS("xpath.Parse"))
	res.set("flwor.parse_us", meanUS("flwor.Parse"))
	res.set("core.build_us", meanUS("core.FromPath", "core.FromFLWOR"))
	res.set("plan.build_us", meanUS("plan.Build"))
	res.set("plan.execute_ms", meanUS("Plan.Execute")/1000)
	res.set("exec.finish_ms", mean(acc.finishMS))
	res.set("result.serialize_ms", meanUS("Result.XML")/1000)
	res.set("result.bytes_per_op", float64(acc.bytes)/float64(acc.ops))
	if acc.results > 0 {
		res.set("plan.scanned_per_result", float64(acc.scanned)/float64(acc.results))
	}
	tracedGM := geomean(acc.queries.classLatencies(len(s.w.Classes), tracedSeconds))
	if untracedGM := geomean(untraced.classLatencies(len(s.w.Classes), untraced.elapsed.Seconds())); untracedGM > 0 {
		res.set("trace.overhead_ratio", tracedGM/untracedGM)
	}
	return writeTrace(s.cfg, s.w.Name, tr, fmt.Sprintf(
		"%d traced operations, %d planned as BlossomTree, %d by navigational fallback\n", acc.ops, acc.planned, acc.ops-acc.planned))
}

func (s *embedded) tracedOp(tr *tracer, id int, o *op, acc *traceAcc) {
	acc.ops++
	root := tr.begin("op", -1, id, 0)
	q := tr.begin("Engine.Query", root, id, 0)
	res, err := s.eng.Query(o.Query)
	tr.end(q)
	ok := err == nil && res.Len() == o.Count
	if ok && s.w.Serialize {
		x := tr.begin("Result.XML", root, id, 0)
		xml := res.XML()
		tr.end(x)
		acc.bytes += int64(len(xml))
		ok = digest(xml) == o.Digest
	}
	if !ok {
		acc.failed++
		tr.end(root)
		return
	}
	st := tr.begin("stages", root, id, 0)
	ranMS, planned, err := s.stages(tr, st, id, o, res.Cached(), acc)
	tr.end(st)
	tr.end(root)
	queryNS := tr.spans[q].End - tr.spans[q].Start
	queryMS := float64(queryNS) / 1e6
	acc.queries.add(o.Class, time.Duration(queryNS), time.Duration(tr.spans[q].Start))
	switch {
	case err != nil:
		acc.failed++
		s.cfg.logf("%s: stage replay of %s: %v", s.w.Name, o.Query, err)
	case planned:
		acc.planned++
		acc.finishMS = append(acc.finishMS, queryMS-ranMS)
	}
}

// stages replays one query through parse → BlossomTree build → plan build
// (decomposition and strategy choice) → execution. It returns the time of
// the stages the engine itself ran for this operation (with a plan-cache
// hit it skips the two builds), and whether the query planned as a
// BlossomTree rather than falling back to navigation.
func (s *embedded) stages(tr *tracer, parent int32, id int, o *op, cached bool, acc *traceAcc) (ranMS float64, planned bool, err error) {
	parseName, coreName := "xpath.Parse", "core.FromPath"
	if o.FLWOR {
		parseName, coreName = "flwor.Parse", "core.FromFLWOR"
	}
	stage := func(name string, f func() error) (float64, error) {
		sp := tr.begin(name, parent, id, 0)
		err := f()
		tr.end(sp)
		return float64(tr.spans[sp].End-tr.spans[sp].Start) / 1e6, err
	}
	var expr flwor.Expr
	parseMS, err := stage(parseName, func() (err error) { expr, err = flwor.Parse(o.Query); return })
	if err != nil {
		return 0, false, err
	}
	var q *core.Query
	coreMS, err := stage(coreName, func() (err error) {
		if pe, ok := expr.(*flwor.PathExpr); ok {
			q, err = core.FromPath(pe.Path)
		} else {
			q, err = core.FromFLWOR(expr)
		}
		return
	})
	if errors.Is(err, core.ErrOutsideFragment) {
		return 0, false, nil
	} else if err != nil {
		return 0, false, err
	}
	l := s.lay[o.Doc]
	var pl *plan.Plan
	buildMS, err := stage("plan.Build", func() (err error) {
		pl, err = plan.Build(q, l.doc, plan.Options{Index: l.index, Stats: l.stats})
		return
	})
	if errors.Is(err, core.ErrOutsideFragment) {
		return 0, false, nil
	} else if err != nil {
		return 0, false, err
	}
	execMS, err := stage("Plan.Execute", func() (err error) { _, err = pl.Execute(); return })
	if err != nil {
		return 0, false, err
	}
	acc.scanned += pl.StatsTree().TotalScanned()
	acc.results += int64(o.Count)
	ranMS = parseMS + execMS
	if !cached {
		ranMS += coreMS + buildMS
	}
	return ranMS, true, nil
}

// writeTrace writes the Chrome trace and the per-layer table of a traced
// run to benchmark/out/.
func writeTrace(cfg runConfig, workload string, tr *tracer, footer string) error {
	dir := filepath.Join(cfg.Root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeChrome(filepath.Join(dir, workload+".trace.json")); err != nil {
		return err
	}
	rows, rootNS, _ := tr.layerTable()
	var containerNS int64
	for _, r := range rows {
		if r.Name == "op" || r.Name == "stages" {
			containerNS += r.SelfNS
		}
	}
	table := formatLayerTable(workload, rows, rootNS) + footer + fmt.Sprintf(
		"time inside the root spans that no layer span covers (rows op, stages): %.1f%%\n", 100*float64(containerNS)/float64(rootNS))
	cfg.logf("%s", table)
	return os.WriteFile(filepath.Join(dir, workload+".layers.txt"), []byte(table), 0o644)
}
