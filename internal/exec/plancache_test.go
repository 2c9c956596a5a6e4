package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blossomtree/internal/fault"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

func mustParseDoc(t *testing.T, xml string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestPlanCacheHitMiss pins the cache lifecycle on one engine: the
// first evaluation compiles (miss), the repeat is served cached, and a
// document load invalidates by bumping the snapshot version.
func TestPlanCacheHitMiss(t *testing.T) {
	e := bibEngine(t)
	const q = `//book[author]/title`

	before := obs.Default.Snapshot()
	res1, err := e.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cached {
		t.Error("first evaluation reported a cache hit")
	}
	res2, err := e.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("repeated evaluation did not hit the plan cache")
	}
	d := obs.Default.Delta(before)
	if d[obs.MetricPlanCacheMisses] < 1 {
		t.Errorf("plan_cache_misses delta = %d, want >= 1", d[obs.MetricPlanCacheMisses])
	}
	if d[obs.MetricPlanCacheHits] < 1 {
		t.Errorf("plan_cache_hits delta = %d, want >= 1", d[obs.MetricPlanCacheHits])
	}

	// Results must be identical either way.
	if canonicalResult(res1) != canonicalResult(res2) {
		t.Errorf("cached result differs from compiled result:\n%s\nvs\n%s",
			canonicalResult(res2), canonicalResult(res1))
	}

	// The cached plan's EXPLAIN carries the hit marker; the fresh one
	// does not.
	if strings.Contains(res1.Plan.Explain(), "plan cache: hit") {
		t.Error("fresh plan's EXPLAIN claims a cache hit")
	}
	if !strings.Contains(res2.Plan.Explain(), "plan cache: hit") {
		t.Errorf("cached plan's EXPLAIN lacks the hit marker:\n%s", res2.Plan.Explain())
	}

	// Loading any document publishes a new snapshot version: the next
	// evaluation must recompile, and must see the new catalog.
	e.Add("extra.xml", mustParseDoc(t, `<bib><book><author/><title>New</title></book></bib>`))
	res3, err := e.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cached {
		t.Error("evaluation after Add still reported a cache hit (stale plan executed)")
	}
}

// TestPlanCacheKeyedByStrategy checks that forced strategies get their
// own cache entries rather than aliasing each other's plans.
func TestPlanCacheKeyedByStrategy(t *testing.T) {
	e := bibEngine(t)
	const q = `//book//last`
	for _, strat := range []plan.Strategy{plan.BoundedNL, plan.Twig} {
		res1, err := e.EvalOptions(q, plan.Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res1.Cached {
			t.Errorf("%v: first evaluation reported a cache hit", strat)
		}
		res2, err := e.EvalOptions(q, plan.Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !res2.Cached {
			t.Errorf("%v: repeat missed the cache", strat)
		}
		if res2.Plan.Strategy != strat {
			t.Errorf("cached plan strategy = %v, want %v", res2.Plan.Strategy, strat)
		}
	}
}

// TestPlanningInputsFromSnapshot checks that the engine plans with the
// snapshot's own index and statistics: planning inputs in the caller's
// options neither keep the evaluation out of the plan cache nor shape
// its plan.
func TestPlanningInputsFromSnapshot(t *testing.T) {
	const q = `//book//last`
	want, err := bibEngine(t).Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	e := bibEngine(t)
	// Statistics claiming a recursive one-node document would rule out
	// the pipelined join and reprice every scan.
	opts := plan.Options{Stats: xmltree.Stats{Nodes: 1, Recursive: true}}
	for i := 0; i < 2; i++ {
		res, err := e.EvalOptions(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached != (i == 1) {
			t.Errorf("run %d: cached = %v, want %v", i, res.Cached, i == 1)
		}
		if got, want := res.Plan.ExplainCosts(), want.Plan.ExplainCosts(); got != want {
			t.Errorf("run %d: the caller's statistics reached the cost model:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestPlanCacheLRUEviction exercises the LRU bound directly on a fresh
// engine's cache.
func TestPlanCacheLRUEviction(t *testing.T) {
	pc := &New().State().plans
	k := func(i int) planKey { return planKey{version: 1, hash: fmt.Sprintf("h%d", i)} }
	for i := 1; i <= planCacheCapacity; i++ {
		pc.put(k(i), &compiled{})
	}
	if _, ok := pc.get(k(1)); !ok { // touch 1 so 2 is the LRU victim
		t.Fatal("entry 1 missing before eviction")
	}
	const newest = planCacheCapacity + 1
	pc.put(k(newest), &compiled{})
	if pc.lru.Len() != planCacheCapacity {
		t.Fatalf("cache holds %d entries, want %d", pc.lru.Len(), planCacheCapacity)
	}
	if _, ok := pc.get(k(2)); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := pc.get(k(1)); !ok {
		t.Error("recently-touched entry was evicted")
	}
	if _, ok := pc.get(k(newest)); !ok {
		t.Error("newest entry was evicted")
	}
}

// TestPreparedLifecycle covers a query text's cached plan: a syntax
// error fails every run, the first run compiles, repeats are served from
// the plan cache, and a load makes the next run recompile against the
// new catalog and see its content.
func TestPreparedLifecycle(t *testing.T) {
	e := bibEngine(t)
	for run := 0; run < 2; run++ {
		if _, err := e.Eval(`//book[`); err == nil {
			t.Errorf("run %d accepted a syntactically invalid query", run)
		}
	}

	const q = `//book[author/last="Knuth"]/title`
	for run := 0; run < 2; run++ {
		res, err := e.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached != (run == 1) {
			t.Errorf("run %d: cached = %v", run, res.Cached)
		}
		if len(res.Nodes) != 2 {
			t.Fatalf("run %d: result nodes = %d, want 2", run, len(res.Nodes))
		}
	}

	e.Add("bib.xml", mustParseDoc(t, `<bib><book><author><last>Knuth</last></author><title>Only</title></book></bib>`))
	res, err := e.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("run after Add reused a stale plan")
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("result nodes after reload = %d, want 1", len(res.Nodes))
	}
}

// TestPreparedOnEmptyEngine: a query run against an empty catalog fails
// without caching anything, and the same text runs once a document is
// loaded.
func TestPreparedOnEmptyEngine(t *testing.T) {
	e := New()
	if _, err := e.Eval(`//book/title`); err == nil {
		t.Error("run on empty engine succeeded")
	}
	e.Add("bib.xml", mustParseDoc(t, bibXML))
	res, err := e.Eval(`//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("result nodes = %d, want 4", len(res.Nodes))
	}
}

// TestPreparedPlanningErrorSurfacesEarly: with several documents
// loaded, a query naming an unknown document fails at planning, before
// any operator scans a node.
func TestPreparedPlanningErrorSurfacesEarly(t *testing.T) {
	e := bibEngine(t)
	e.Add("other.xml", mustParseDoc(t, `<r><a/></r>`))
	counter := fault.New()
	if _, err := e.EvalOptions(`doc("nope.xml")//a`, plan.Options{Fault: counter}); err == nil {
		t.Error("a query over an unregistered document ran")
	}
	if n := counter.Hits(fault.SiteNoKScan); n != 0 {
		t.Errorf("the failed query scanned %d nodes", n)
	}
}

// TestPreparedRunContext: a canceled context aborts the run without
// poisoning the query's cached plan for later runs.
func TestPreparedRunContext(t *testing.T) {
	e := bibEngine(t)
	const q = `//book/title`
	if _, err := e.Eval(q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvalOptions(q, plan.Options{Ctx: ctx}); err == nil {
		t.Error("run with canceled context succeeded")
	}
	res, err := e.Eval(q)
	if err != nil {
		t.Fatalf("run after canceled run: %v", err)
	}
	if !res.Cached || len(res.Nodes) != 4 {
		t.Fatalf("run after canceled run: cached=%v, %d nodes; want a cache hit with 4", res.Cached, len(res.Nodes))
	}
}

// TestPreparedMatchesUnprepared is the differential check: across the
// strategy variants, runs served from the plan cache produce results
// byte-identical to the run that compiled the plan.
func TestPreparedMatchesUnprepared(t *testing.T) {
	queries := []string{
		`//book/title`,
		`//book[author/last="Knuth"]/title`,
		`for $b in doc("bib.xml")//book order by $b/title descending return <t>{ $b/title }</t>`,
		`//book/title/text()`,
	}
	for _, v := range strategyVariants(false) {
		for _, q := range queries {
			e := bibEngine(t)
			want, err := e.EvalOptions(q, v.opts)
			if err != nil {
				if v.opts.Strategy == plan.Twig && strings.Contains(err.Error(), "TwigStack") {
					continue
				}
				t.Fatalf("variant %s, query %q: %v", v.name, q, err)
			}
			for run := 1; run < 3; run++ {
				got, err := e.EvalOptions(q, v.opts)
				if err != nil {
					t.Fatalf("variant %s, query %q, run %d: %v", v.name, q, run, err)
				}
				if !got.Cached {
					t.Errorf("variant %s, query %q, run %d: repeat missed the cache", v.name, q, run)
				}
				if canonicalResult(got) != canonicalResult(want) {
					t.Errorf("variant %s, query %q: cached result diverges\n--- cached ---\n%s--- compiled ---\n%s",
						v.name, q, canonicalResult(got), canonicalResult(want))
				}
			}
		}
	}
}

// TestEvalAllDocsWarmCache: pin memoization keeps the per-document
// snapshots (and so their versions) stable across EvalAllDocs calls,
// letting the second fan-out run entirely warm.
func TestEvalAllDocsWarmCache(t *testing.T) {
	e := New()
	e.Add("one.xml", mustParseDoc(t, `<r><a/><a/></r>`))
	e.Add("two.xml", mustParseDoc(t, `<r><a/></r>`))
	for call := 0; call < 2; call++ {
		res, err := e.EvalAllDocs(`//a`, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Children {
			if c.Cached != (call == 1) {
				t.Errorf("call %d, %s: cached = %v", call, c.QueryID, c.Cached)
			}
		}
	}
}

// TestPreparedRaceWithLoad interleaves repeated runs of one query text —
// plan-cache hits and the recompiles each load forces — with concurrent
// Adds under the race detector. Each reader brackets its run with the
// writer's published progress: the snapshot the run executed against
// must lie between the two observations, proving no stale plan (or
// stale catalog) ever serves a result.
func TestPreparedRaceWithLoad(t *testing.T) {
	e := New()
	docWith := func(n int) *xmltree.Document {
		var sb strings.Builder
		sb.WriteString("<r>")
		for i := 0; i < n; i++ {
			sb.WriteString("<a/>")
		}
		sb.WriteString("</r>")
		return mustParseDoc(t, sb.String())
	}
	e.Add("d", docWith(1))

	const maxItems = 40
	var published atomic.Int64
	published.Store(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 2; n <= maxItems; n++ {
			e.Add("d", docWith(n))
			published.Store(int64(n))
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for published.Load() < maxItems {
				lo := published.Load()
				res, err := e.Eval(`//a`)
				if err != nil {
					t.Errorf("Run during load: %v", err)
					return
				}
				hi := published.Load()
				got := int64(len(res.Nodes))
				// published trails the Add by one step, so the snapshot may
				// already hold the write in flight when hi was read.
				if got < lo || got > hi+1 {
					t.Errorf("run saw %d nodes; catalog bounds were [%d, %d]", got, lo, hi+1)
					return
				}
			}
		}()
	}
	wg.Wait()
}
