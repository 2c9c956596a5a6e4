package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// TestPlanCacheBypassOnExplicitInputs checks that caller-supplied
// planning inputs (index, statistics) keep the evaluation out of the
// plan cache: such plans are shaped by caller state the key cannot
// see.
func TestPlanCacheBypassOnExplicitInputs(t *testing.T) {
	e := bibEngine(t)
	doc, _ := e.resolve("bib.xml")
	opts := plan.Options{Stats: xmltree.ComputeStats(doc)}
	for i := 0; i < 2; i++ {
		res, err := e.EvalOptions(`//book/title`, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Errorf("run %d with explicit stats hit the cache", i)
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

// TestPreparedLifecycle covers the prepared-statement API: eager error
// surfacing, cache seeding, and recompilation after loads.
func TestPreparedLifecycle(t *testing.T) {
	e := bibEngine(t)

	if _, err := e.Prepare(`//book[`, plan.Options{}); err == nil {
		t.Error("Prepare accepted a syntactically invalid query")
	}

	p, err := e.Prepare(`//book[author/last="Knuth"]/title`, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != `//book[author/last="Knuth"]/title` {
		t.Errorf("Source() = %q", p.Source())
	}

	// Prepare compiled eagerly, so the very first Run is already warm.
	res, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("first Run after Prepare missed the cache (eager compile did not seed it)")
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("result nodes = %d, want 2", len(res.Nodes))
	}

	// A load invalidates; the next Run recompiles against the new
	// catalog and sees its content.
	e.Add("bib.xml", mustParseDoc(t, `<bib><book><author><last>Knuth</last></author><title>Only</title></book></bib>`))
	res, err = p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("Run after Add reused a stale plan")
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("result nodes after reload = %d, want 1", len(res.Nodes))
	}
}

// TestPreparedOnEmptyEngine: preparation against an empty catalog
// defers compilation to Run instead of failing.
func TestPreparedOnEmptyEngine(t *testing.T) {
	e := New()
	p, err := e.Prepare(`//book/title`, plan.Options{})
	if err != nil {
		t.Fatalf("Prepare on empty engine: %v", err)
	}
	if _, err := p.RunContext(context.Background()); err == nil {
		t.Error("Run on empty engine succeeded")
	}
	e.Add("bib.xml", mustParseDoc(t, bibXML))
	res, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("result nodes = %d, want 4", len(res.Nodes))
	}
}

// TestPreparedPlanningErrorSurfacesEarly: with several documents
// loaded, a query naming an unknown document fails at Prepare, not at
// the first Run.
func TestPreparedPlanningErrorSurfacesEarly(t *testing.T) {
	e := bibEngine(t)
	e.Add("other.xml", mustParseDoc(t, `<r><a/></r>`))
	if _, err := e.Prepare(`doc("nope.xml")//a`, plan.Options{}); err == nil {
		t.Error("Prepare accepted a query over an unregistered document")
	}
}

// TestPreparedRunContext: a canceled context aborts the run without
// poisoning the prepared statement for later runs.
func TestPreparedRunContext(t *testing.T) {
	e := bibEngine(t)
	p, err := e.Prepare(`//book/title`, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunContext(ctx); err == nil {
		t.Error("RunContext with canceled context succeeded")
	}
	res, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatalf("Run after canceled run: %v", err)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("result nodes = %d, want 4", len(res.Nodes))
	}
}

// TestPreparedMatchesUnprepared is the differential check: across the
// strategy variants, Prepared.Run (warm cache) and a fresh EvalOptions
// produce byte-identical canonical results.
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
			p, err := e.Prepare(q, v.opts)
			if err != nil {
				t.Fatalf("variant %s, query %q: Prepare: %v", v.name, q, err)
			}
			for run := 0; run < 2; run++ {
				got, err := p.RunContext(context.Background())
				if err != nil {
					t.Fatalf("variant %s, query %q, run %d: %v", v.name, q, run, err)
				}
				if !got.Cached {
					t.Errorf("variant %s, query %q, run %d: prepared run missed the cache", v.name, q, run)
				}
				if canonicalResult(got) != canonicalResult(want) {
					t.Errorf("variant %s, query %q: prepared result diverges\n--- prepared ---\n%s--- direct ---\n%s",
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
		results, _, err := e.EvalAllDocs(`//a`, plan.Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("call %d, doc %s: %v", call, r.URI, r.Err)
			}
			if call == 1 && !r.Result.Cached {
				t.Errorf("second EvalAllDocs call missed the cache for %s", r.URI)
			}
		}
	}
}

// TestPreparedRaceWithLoad interleaves Prepared.Run with concurrent
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
	p, err := e.Prepare(`//a`, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}

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
				res, err := p.RunContext(context.Background())
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
