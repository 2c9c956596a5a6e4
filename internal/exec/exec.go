// Package exec is the query executor: it ties the compiler (xpath,
// flwor, core), the planner (plan) and the algebra (nestedlist, nok,
// join) into an engine that evaluates queries end to end — the full data
// flow of the paper's Figure 2: XMLTree → NoK → NestedList →
// selection/projection/join → slot rows → construction.
//
// The executor owns the stages the algebra leaves abstract. A FLWOR's
// instances become slot rows: one row per instance, a cell per
// returning-tree slot the tail reads, all cells indexing one node
// buffer. Over those rows it applies residual where-conditions that fall
// outside the conjunctive BlossomTree fragment, enforces FLWOR iteration
// order and order by, and constructs the output from return-clause
// constructors as a fragment that references the source nodes its paths
// select. A return or order-by path reads its endpoint's cell when the
// compiler found that cell exact (core.Query.Cells) and navigates from
// the row's variable bindings (naveval.Env, built on demand) otherwise.
package exec

import (
	"container/list"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blossomtree/internal/core"
	"blossomtree/internal/flwor"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/naveval"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/segstore"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

// Engine evaluates queries over registered documents.
//
// An Engine is safe for concurrent use: registration (Add) installs a
// fresh immutable snapshot of the document catalog under a writer lock,
// and every evaluation reads exactly one snapshot for its whole
// lifetime. Any number of goroutines may therefore call Eval*,
// Explain, Document and Add concurrently; an evaluation that started
// before an Add completes sees the catalog as it was when the
// evaluation began.
type Engine struct {
	mu   sync.Mutex // serializes writers (Add); readers use snap
	snap atomic.Pointer[snapshot]
}

// State is what an engine owns beside its catalog. Every snapshot points
// at it, so an evaluation reaches its engine's state through the snapshot
// it already holds, and dropping an engine drops the plans it cached —
// and with them the documents. Nothing is allocated by capacity up front.
type State struct {
	Recent   *obs.RecordRing // recent evaluations' records, for trace export
	plans    planCache       // compiled templates, and what their first runs observed
	versions atomic.Uint64   // hands out snapshot versions
}

// snapshot is an immutable view of the registered documents and their
// derived structures. Snapshots are never mutated after publication;
// Add copies the catalog map and swaps the pointer.
type snapshot struct {
	// docs is the catalog: one entry per resolvable URI, heap-registered
	// or store-backed.
	docs  map[string]entry
	first string
	// store, when non-nil, serves the catalog's lazy entries out of a
	// persistent segment directory: a store-backed document is read
	// and materialized on first resolution (and LRU-cached inside the
	// store), so attaching a large catalog costs no parsing up front.
	store *segstore.Store
	state *State // the owning engine's
	// version identifies this catalog state; it is unique across every
	// snapshot sharing state (Adds, pins), so it keys the plan cache: a
	// cached plan is reusable exactly while the snapshot it was compiled
	// against is current, and any Add publishes a new version,
	// invalidating without locking.
	version uint64

	// pinned memoizes the derived single-document snapshots of pin, so
	// repeated EvalAllDocs calls over the same catalog state share pin
	// versions — and therefore cached plans. Lazily built under pinMu;
	// the catalog map above stays immutable.
	pinMu  sync.Mutex
	pinned map[string]*snapshot
}

// entry is one catalog document with the structures derived from it. A
// nil doc marks a store-backed entry, holding only the stats persisted
// in its segment and materialized on demand by load; a heap
// registration under the same URI replaces (shadows) it.
type entry struct {
	doc   *xmltree.Document
	stats xmltree.Stats
	index *index.TagIndex
}

// New returns an engine. Every document it registers gets a tag index
// (Add builds it; a store-backed document's comes from the store).
func New() *Engine {
	// The exposition carries the cache's names from the first scrape.
	obs.Default.Counter(obs.MetricPlanCacheHits)
	obs.Default.Counter(obs.MetricPlanCacheMisses)
	obs.Default.Counter(obs.MetricPlanCacheEvictions)
	obs.Default.Counter(obs.MetricFeedbackReplans)
	st := &State{
		Recent: obs.NewRecordRing(512),
		plans:  planCache{m: make(map[planKey]*list.Element)},
	}
	e := &Engine{}
	e.snap.Store(&snapshot{docs: map[string]entry{}, state: st, version: st.versions.Add(1)})
	return e
}

// State returns the state the engine owns.
func (e *Engine) State() *State { return e.snapshot().state }

// snapshot returns the current immutable catalog view.
func (e *Engine) snapshot() *snapshot { return e.snap.Load() }

// clone copies the catalog under a fresh version, for a writer to edit
// and publish.
func (s *snapshot) clone() *snapshot {
	next := &snapshot{
		docs:    make(map[string]entry, len(s.docs)+1),
		first:   s.first,
		store:   s.store,
		state:   s.state,
		version: s.state.versions.Add(1),
	}
	for k, v := range s.docs {
		next.docs[k] = v
	}
	return next
}

// Add registers a document under a URI (the name queries use in
// doc("…")). The first added document also serves absolute paths, so
// single-document queries work regardless of the URI they mention.
//
// Add is safe to call while other goroutines evaluate queries: statistics
// and indexes are computed outside the lock, and the catalog is replaced
// copy-on-write, so in-flight evaluations keep their snapshot.
func (e *Engine) Add(uri string, doc *xmltree.Document) {
	obs.Default.Add(obs.MetricDocumentsAdded, 1)
	ent := entry{doc: doc, stats: xmltree.ComputeStats(doc), index: index.Build(doc)}

	e.mu.Lock()
	defer e.mu.Unlock()
	next := e.snap.Load().clone()
	next.docs[uri] = ent
	if next.first == "" {
		next.first = uri
	}
	e.snap.Store(next)
}

// AttachStore registers every servable document of a persistent segment
// store with the engine. Documents are not parsed or decoded here: they
// materialize lazily (read + decode, LRU-cached by the store) on first
// resolution. Like Add, AttachStore publishes one new snapshot version,
// so cached plans compiled against the previous catalog invalidate, and
// their successors learn from their own first runs.
//
// Heap documents registered under the same URI (before or after) shadow
// the store's copy.
func (e *Engine) AttachStore(st *segstore.Store) {
	uris := st.URIs()
	obs.Default.Add(obs.MetricDocumentsAdded, int64(len(uris)))

	e.mu.Lock()
	defer e.mu.Unlock()
	next := e.snap.Load().clone()
	if next.store != nil && next.store != st {
		// Replacing a store drops its URIs; attaching the same store again
		// (e.g. after more Saves) refreshes the URI set below.
		for u, ent := range next.docs {
			if ent.doc == nil {
				delete(next.docs, u)
			}
		}
	}
	next.store = st
	for _, u := range uris {
		if ent, ok := next.docs[u]; !ok || ent.doc == nil {
			stats, _ := st.DocStats(u)
			next.docs[u] = entry{stats: stats}
		}
		if next.first == "" {
			next.first = u
		}
	}
	e.snap.Store(next)
}

// uris returns the sorted URIs of every resolvable document: heap
// registrations plus store-backed documents.
func (s *snapshot) uris() []string {
	out := make([]string, 0, len(s.docs))
	for u := range s.docs {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Document returns the document registered under uri (with the same
// fallback rules queries use) and whether any document could be
// resolved.
func (e *Engine) Document(uri string) (*xmltree.Document, bool) {
	d, err := e.resolve(uri)
	return d, err == nil
}

// resolve maps a URI to a document against the current snapshot;
// evaluations resolve against the snapshot they captured instead.
func (e *Engine) resolve(uri string) (*xmltree.Document, error) {
	return e.snapshot().resolve(uri)
}

// resolve maps a URI to a document under the catalog's resolution rule
// (see resolveURI).
func (s *snapshot) resolve(uri string) (*xmltree.Document, error) {
	u, err := s.resolveURI(uri)
	if err != nil {
		return nil, err
	}
	ent, err := s.load(u)
	return ent.doc, err
}

// resolveURI maps a URI to the registered one it names: a registered URI
// is itself; otherwise the empty URI (absolute paths) resolves to the
// first registered document, and a catalog holding a single document
// serves it for any URI — but once several documents are registered, an
// unknown doc("…") URI is an error rather than a silent alias for the
// first document.
func (s *snapshot) resolveURI(uri string) (string, error) {
	if _, ok := s.docs[uri]; ok {
		return uri, nil
	}
	switch n := len(s.docs); {
	case n == 0:
		return "", fmt.Errorf("exec: no documents registered (resolving %q)", uri)
	case uri == "" || n == 1:
		return s.first, nil
	default:
		return "", fmt.Errorf("exec: no document registered for %q (%d documents loaded; doc(\"…\") must name one of them)", uri, n)
	}
}

// Stats returns the statistics of the document uri resolves to (with the
// fallback rules queries use) as the engine holds them: computed once by
// Add, or persisted in a store-backed document's segment, which stays on
// disk.
func (e *Engine) Stats(uri string) (xmltree.Stats, error) {
	s := e.snapshot()
	u, err := s.resolveURI(uri)
	return s.docs[u].stats, err
}

// load returns the registered URI's entry, materializing a store-backed
// document on demand. A known-but-unreadable store document
// (quarantined after open) is an error, so the caller surfaces the
// corruption instead of silently aliasing another document.
func (s *snapshot) load(uri string) (entry, error) {
	ent := s.docs[uri]
	if ent.doc != nil {
		return ent, nil
	}
	od, err := s.store.Document(uri)
	if err != nil {
		return entry{}, fmt.Errorf("exec: store document %q: %w", uri, err)
	}
	return entry{doc: od.Doc, stats: od.Stats, index: od.Index}, nil
}

// Result is the outcome of a query evaluation. It embeds the
// evaluation's record (query ID, strategy, cache and replan facts, the
// stats tree), the same record the query log and the trace ring read.
type Result struct {
	*obs.QueryRecord
	Query     *core.Query
	Plan      *plan.Plan      // nil for navigational evaluation
	Instances *plan.Instances // nil for navigational evaluation
	// Nodes is the node result of path queries (distinct, document
	// order).
	Nodes []*xmltree.Node
	// Output is the constructed output when the query has constructors;
	// nil otherwise. It references the source nodes its paths selected.
	Output *xmltree.Fragment
	// Returned is the answer of a FLWOR whose return clause constructs
	// nothing: the return path's nodes for each row, in iteration order.
	Returned []*xmltree.Node

	rows *rowSet // a FLWOR's iterations; nil for path queries
}

// Envs returns one variable-binding row per surviving iteration, in
// FLWOR iteration order (or order-by order). Planned rows are built
// into Envs on the first call.
func (r *Result) Envs() []naveval.Env {
	if r.rows == nil {
		return nil
	}
	return r.rows.rowEnvs()
}

// Len counts the result's rows: iterations for a FLWOR, otherwise
// result nodes. A FLWOR whose where clause keeps no row counts 0,
// however many instances the plan produced.
func (r *Result) Len() int {
	if r.rows != nil {
		return len(r.rows.order)
	}
	return len(r.Nodes)
}

// FallbackExplain renders the EXPLAIN form of a navigational-fallback
// evaluation ("" for planned runs), matching Engine.Explain on the same
// query.
func (r *Result) FallbackExplain() string {
	if r.NavReason == "" {
		return ""
	}
	return navExplain(r.NavReason)
}

// navExplain renders the EXPLAIN header of a navigational evaluation:
// an explicitly requested XH strategy (reason ""), or a query outside
// the BlossomTree fragment, which falls back with the reason named.
func navExplain(reason string) string {
	if reason == "" {
		return "plan strategy: XH\n"
	}
	return "plan strategy: XH\n  navigational fallback: " + reason + "\n"
}

// parsed is a query text parsed once: what every evaluation body
// takes. The text is hashed once, here: the
// plan-cache key and the query record both read hash.
type parsed struct {
	src  string
	hash string
	expr flwor.Expr
}

// parse parses a query text.
func parse(src string) (*parsed, error) {
	expr, err := flwor.Parse(src)
	if err != nil {
		return nil, err
	}
	return &parsed{src: src, hash: obs.QueryHash(src), expr: expr}, nil
}

// Eval parses and evaluates a query with the Auto strategy.
func (e *Engine) Eval(src string) (*Result, error) {
	return e.EvalOptions(src, plan.Options{})
}

// EvalOptions evaluates with full planner control; cancellation and
// deadlines ride in opts.Ctx.
func (e *Engine) EvalOptions(src string, opts plan.Options) (*Result, error) {
	q, err := parse(src)
	if err != nil {
		return nil, err
	}
	return evalExpr(e.snapshot(), q, opts)
}

// evalExpr evaluates a parsed query against one immutable snapshot, so
// a concurrent Add cannot change the catalog mid-evaluation. Engine-wide
// metrics in obs.Default are updated once per evaluation (counter adds
// are atomic, so concurrent evaluations aggregate safely).
//
// It is the executor's governance boundary: the query governor is
// created here (an already-canceled context returns gov.ErrCanceled
// before anything is compiled or scanned), governance aborts are
// counted, and any panic escaping an operator is recovered into an
// error so one bad query cannot crash a fan-out worker or the daemon.
//
// It is also the telemetry boundary: each evaluation fills one
// obs.QueryRecord as it runs and publishes it, on success and failure
// alike.
func evalExpr(s *snapshot, q *parsed, opts plan.Options) (*Result, error) {
	return evalInto(&obs.QueryRecord{}, s, q, opts, false)
}

// evalInto is evalExpr filling a record the caller holds: a fan-out
// keeps its per-document records, failed ones included. A gathered
// evaluation stops at its rows and returned nodes: it leaves the
// constructed output to gather, which builds it once over every
// document's rows.
func evalInto(rec *obs.QueryRecord, s *snapshot, q *parsed, opts plan.Options, gathered bool) (res *Result, err error) {
	start := time.Now()
	rec.QueryID, rec.QueryHash = opts.QueryID, q.hash
	if rec.QueryID == "" {
		rec.QueryID = NewQueryID()
	}
	expr := q.expr
	g := opts.Gov
	if g == nil {
		g = gov.New(opts.Ctx, opts.Budget, opts.Fault)
		opts.Gov = g
	}
	var pl *plan.Plan
	defer func() {
		rec.Latency = time.Since(start)
		if res != nil {
			res.QueryRecord = rec
		}
		s.state.publish(rec, opts, pl, res, err)
	}()
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("exec: evaluation panicked: %v\n%s", r, debug.Stack())
			obs.Default.Add(obs.MetricQueryPanics, 1)
		}
	}()
	if err := g.CheckNow(); err != nil {
		return nil, err
	}
	if opts.Strategy == plan.Navigational {
		rec.Strategy = "XH"
		return evalNavigational(s, expr, g, gathered)
	}
	c, hit, err := compiledFor(s, q, opts)
	if err != nil {
		return nil, err
	}
	rec.Cached = hit
	if c.nav {
		// Outside the BlossomTree fragment: the cached routing decision
		// sends the query to the navigational evaluator, still under this
		// evaluation's governor and record.
		rec.Strategy = "XH"
		rec.NavReason = c.navReason
		return evalNavigational(s, expr, g, gathered)
	}
	pl = c.tmpl.Fork(opts)
	pl.Cached = hit
	rec.Strategy = pl.Strategy.String()
	rec.Replanned, rec.Drift = c.replanned, c.fbDrift
	instances, err := pl.Execute()
	if err != nil {
		return nil, err
	}
	res = &Result{Query: c.q, Plan: pl, Instances: instances}
	if c.isPath {
		res.Nodes = projectPathResult(c.q, instances, c.textTail)
	} else if err := finishFLWOR(s, c, res, g, gathered); err != nil {
		return nil, err
	}
	c.record(pl.StatsTree())
	return res, nil
}

// compiledFor resolves the query's compiled form against snapshot s:
// served from the engine's plan cache when possible, compiled (and
// cached) otherwise. hit reports whether the cache served the entry.
func compiledFor(s *snapshot, q *parsed, opts plan.Options) (*compiled, bool, error) {
	key := cacheKey(s, q, opts)
	if c, ok := s.state.plans.get(key); ok {
		// A hit is where the feedback loop closes: if the template's
		// first run drifted from its estimates, it is recompiled with
		// the observed cardinalities and re-cached under this key.
		if c2 := maybeReplan(s, q.expr, key, c, opts); c2 != nil {
			return c2, true, nil
		}
		return c, true, nil
	}
	c, err := compileTemplate(s, q.expr, opts)
	if err != nil {
		return nil, false, err
	}
	c.learns = opts.Strategy == plan.Auto
	s.state.plans.put(key, c)
	return c, false, nil
}

// cacheKey returns the plan-cache key of q under opts.
func cacheKey(s *snapshot, q *parsed, opts plan.Options) planKey {
	return planKey{version: s.version, hash: q.hash, strategy: opts.Strategy}
}

// compileTemplate runs the full compile pipeline and builds the
// pristine plan template the cache shares. It plans with the snapshot
// entry's index and statistics; of opts only the strategy and the
// feedback hints reach the Build — per-run state (governor, context,
// budgets, telemetry) is installed later by Fork, so the template never
// holds a run's resources.
// Compile or Build errors wrapping core.ErrOutsideFragment are not
// failures: the query parses but cannot be expressed in the pattern-tree
// fragment, so the template records a navigational-fallback routing
// decision instead of a plan.
func compileTemplate(s *snapshot, expr flwor.Expr, opts plan.Options) (*compiled, error) {
	q, isPath, tail, err := compile(expr)
	if err != nil {
		if errors.Is(err, core.ErrOutsideFragment) {
			return &compiled{nav: true, navReason: err.Error()}, nil
		}
		return nil, err
	}
	ent, err := s.planContext(q)
	if err != nil {
		return nil, err
	}
	tmpl, err := plan.Build(q, ent.doc, plan.Options{
		Strategy:  opts.Strategy,
		Index:     ent.index,
		Stats:     ent.stats,
		CardHints: opts.CardHints,
	})
	if err != nil {
		if errors.Is(err, core.ErrOutsideFragment) {
			return &compiled{nav: true, navReason: err.Error()}, nil
		}
		return nil, err
	}
	c := &compiled{q: q, isPath: isPath, textTail: tail, tmpl: tmpl}
	if !isPath {
		if c.tail, err = newTail(q); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Explain compiles the query and renders its physical plan: the
// decomposition, the cost model's strategy table, and the annotated
// operator tree with per-operator estimates. With opts.Analyze it is
// EXPLAIN ANALYZE: the query is evaluated (governed, traced, logged and
// metered like any other evaluation) and the tree carries the counters
// and wall times the run recorded next to the estimates.
func (e *Engine) Explain(src string, opts plan.Options) (string, error) {
	q, err := parse(src)
	if err != nil {
		return "", err
	}
	return explain(e.snapshot(), q, opts)
}

// explain renders EXPLAIN / EXPLAIN ANALYZE against a fixed snapshot;
// plain EXPLAIN renders the template the next run would execute.
func explain(s *snapshot, q *parsed, opts plan.Options) (string, error) {
	if opts.Analyze {
		// The evaluation takes any pending replan itself on its cache hit.
		res, err := evalExpr(s, q, opts)
		if err != nil {
			return "", err
		}
		if res.Plan == nil {
			// Navigational runs have no operator tree to instrument;
			// report the row count.
			return navExplain(res.NavReason) + fmt.Sprintf("  rows: %d\n", res.Len()), nil
		}
		return res.Plan.Explain() + res.Plan.ExplainCosts() + res.Plan.ExplainTree(true), nil
	}
	c, err := nextTemplate(s, q, opts)
	if err != nil {
		return "", err
	}
	if c.nav {
		return navExplain(c.navReason), nil
	}
	// Building the operator tree records the access-method notes and
	// creates the stats tree the estimate columns render from.
	pl := c.tmpl.Fork(opts)
	if err := pl.Prepare(); err != nil {
		return "", err
	}
	return pl.Explain() + pl.ExplainCosts() + pl.ExplainTree(false), nil
}

// nextTemplate returns, without touching the cache's counters or order,
// the template the next evaluation of q would execute: the cached one,
// unless its next hit will replan it.
func nextTemplate(s *snapshot, q *parsed, opts plan.Options) (*compiled, error) {
	if c, ok := s.state.plans.peek(cacheKey(s, q, opts)); ok {
		hints, _, pending := c.replanHints()
		if !pending || c.decided.Load() {
			return c, nil
		}
		opts.CardHints = hints
	}
	return compileTemplate(s, q.expr, opts)
}

// compile builds the BlossomTree query from a parsed expression. A
// trailing text() step on a bare path is outside the pattern-tree
// fragment; it is peeled off here and returned as the tail step
// projectPathResult re-applies to the matched elements.
func compile(expr flwor.Expr) (*core.Query, bool, *xpath.Step, error) {
	if pe, ok := expr.(*flwor.PathExpr); ok {
		p := pe.Path
		var tail *xpath.Step
		if n := len(p.Steps); n > 0 && p.Steps[n-1].TextTest {
			t := p.Steps[n-1]
			tail = &t
			p = &xpath.Path{Source: p.Source, Steps: p.Steps[:n-1]}
		}
		q, err := core.FromPath(p)
		return q, true, tail, err
	}
	q, err := core.FromFLWOR(expr)
	return q, false, nil, err
}

// planContext picks the document all the query's pattern trees anchor at
// (the engine evaluates single-document queries; the paper's fragment
// likewise correlates paths over one input document).
func (s *snapshot) planContext(q *core.Query) (entry, error) {
	var ent entry
	var uri string
	for u := range q.Tree.Docs {
		name, err := s.resolveURI(u)
		if err != nil {
			return entry{}, err
		}
		e, err := s.load(name)
		if err != nil {
			return entry{}, err
		}
		if ent.doc != nil && e.doc != ent.doc {
			return entry{}, fmt.Errorf("exec: query spans multiple documents (%q, %q); evaluate per document", uri, u)
		}
		ent, uri = e, u
	}
	if ent.doc == nil {
		return entry{}, fmt.Errorf("exec: query references no document")
	}
	// The entry carries the resolved document's own index and stats
	// (heap, or built and persisted by the store), so index and document
	// always agree.
	return ent, nil
}

// projectPathResult extracts the path query's node result: the "result"
// slot across all instances, distinct, in document order. A text()
// tail step the compiler peeled off the path is re-applied here,
// projecting the matched elements onto their text children (child
// axis) or text descendants (descendant axis).
func projectPathResult(q *core.Query, ins *plan.Instances, textTail *xpath.Step) []*xmltree.Node {
	rn, ok := q.Return.ByVar("result")
	if !ok {
		return nil
	}
	out := make([]*xmltree.Node, 0, ins.Len())
	for i := range ins.Rows {
		out = append(out, ins.Bound(i, rn)...)
	}
	for _, l := range ins.Lists {
		l.VisitSlot(rn.Slot, func(n *xmltree.Node) bool {
			out = append(out, n)
			return true
		})
	}
	// The pipelined join and TwigStack's result column deliver the result
	// nodes already distinct and in document order; distinctFrom sorts
	// only when they are not.
	out = distinctFrom(out, 0)
	if textTail != nil {
		return textNodes(out, *textTail)
	}
	return out
}

// finishFLWOR turns a FLWOR's instances into rows, applies residual
// conditions, restores iteration order, applies order by, and
// constructs the answer (see construct for gathered). Residual-condition
// and order-by path evaluation run under the query's governor, so a
// pathological residual cannot escape the budget the operators honored.
func finishFLWOR(s *snapshot, c *compiled, res *Result, g *gov.Governor, gathered bool) error {
	t := c.tail
	rs, err := t.rows(res.Instances)
	if err != nil {
		return err
	}
	if c.q.Pos != "" {
		// The positional variable numbers iteration order before the
		// where-clause, all of whose conditions are residual, filters it.
		rs.iterate()
		rs.number(c.q.Limit)
	}
	// Residual where-conditions (outside the conjunctive fragment).
	if len(c.q.Residual) > 0 {
		if err := rs.filter(c.q.Residual, s.resolve, g); err != nil {
			return err
		}
	}
	if c.q.Pos == "" {
		rs.iterate()
	}
	if t.f.OrderBy != nil {
		if err := rs.orderBy(t.f, s.resolve, g); err != nil {
			return err
		}
	}
	res.rows = rs
	return construct(s.resolve, t.expr, t.f, rs, res, gathered)
}

// evalNavigational runs the whole query through the navigational
// evaluator (the XH stand-in) under the query's governor. The output
// budget is charged on the materialized rows (the navigational oracle
// has no pull-based root to meter).
func evalNavigational(s *snapshot, expr flwor.Expr, g *gov.Governor, gathered bool) (*Result, error) {
	if pe, ok := expr.(*flwor.PathExpr); ok {
		// Resolve against the path's own document.
		uri := ""
		if pe.Path.Source.Kind == xpath.SourceDoc {
			uri = pe.Path.Source.Doc
		}
		doc, err := s.resolve(uri)
		if err != nil {
			return nil, err
		}
		nodes, err := naveval.EvalPath(naveval.SingleDoc(doc), nil, pe.Path, g)
		if err != nil {
			return nil, err
		}
		if err := g.Output(int64(len(nodes))); err != nil {
			return nil, err
		}
		return &Result{Nodes: nodes}, nil
	}
	f, err := topFLWOR(expr)
	if err != nil {
		return nil, err
	}
	envs, err := naveval.EvalFLWOR(s.resolve, f, g)
	if err != nil {
		return nil, err
	}
	if err := g.Output(int64(len(envs))); err != nil {
		return nil, err
	}
	res := &Result{rows: envRows(envs)}
	return res, construct(s.resolve, expr, f, res.rows, res, gathered)
}

// topFLWOR unwraps constructors down to the single FLWOR body.
func topFLWOR(expr flwor.Expr) (*flwor.FLWOR, error) {
	switch t := expr.(type) {
	case *flwor.FLWOR:
		return t, nil
	case *flwor.ElemCtor:
		for _, c := range t.Content {
			if f, err := topFLWOR(c); err == nil {
				return f, nil
			}
		}
		return nil, fmt.Errorf("exec: constructor contains no FLWOR expression")
	default:
		return nil, fmt.Errorf("exec: %T is not a FLWOR expression", expr)
	}
}
