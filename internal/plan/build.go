package plan

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"blossomtree/internal/core"
	"blossomtree/internal/join"
	"blossomtree/internal/nok"
	"blossomtree/internal/obs"
)

// component is a connected part of the join graph under construction:
// the operator computing it, the stats node tracking it, and the set of
// NoKs whose slots it fills.
type component struct {
	op    join.Operator
	stats *obs.OpStats
	noks  map[*core.NoK]bool
	// seed is the NoK whose base scan started the component, and
	// seedStats that scan's stats node: while stats is still seedStats,
	// no operator sits above the scan.
	seed      *core.NoK
	seedStats *obs.OpStats
}

// buildNoKPlan wires NoK scans and structural joins along the
// decomposition's links, then connects remaining components through
// crossing-edge joins, and finally applies same-component crossings and
// positional filters as selections.
func (p *Plan) buildNoKPlan() (join.Operator, *obs.OpStats, error) {
	d := p.Decomp
	matchers := make(map[*core.NoK]*nok.Matcher, len(d.NoKs))
	for _, n := range d.NoKs {
		m, err := nok.NewMatcher(n, p.Query.Return)
		if err != nil {
			return nil, nil, err
		}
		matchers[n] = m
	}

	joined := make(map[*core.NoK]bool)
	for _, l := range d.Links {
		joined[l.Child] = !l.IsScan()
	}

	var comps []*component
	newComponent := func(n *core.NoK) *component {
		_, op, st := p.baseScan(matchers[n])
		c := &component{op: op, stats: st, noks: map[*core.NoK]bool{n: true}, seed: n, seedStats: st}
		comps = append(comps, c)
		return c
	}
	findComp := func(n *core.NoK) *component {
		for _, c := range comps {
			if c.noks[n] {
				return c
			}
		}
		return nil
	}
	removeComp := func(c *component) {
		for i, x := range comps {
			if x == c {
				comps = append(comps[:i], comps[i+1:]...)
				return
			}
		}
	}

	// Every NoK no //-join reaches seeds a component: the pattern-tree
	// roots (bar trivial doc-root-only NoKs, which carry no slots) and the
	// targets of cut edges from a document root, which scan the whole
	// document. The crossing joins below connect them once every link is
	// wired — a link may prune the matches a crossing reads (the for × for
	// case of Example 1).
	for _, n := range d.NoKs {
		if joined[n] || trivialNoK(n) {
			continue
		}
		c := newComponent(n)
		if pos, has := n.Root.PositionConstraint(); has {
			// Positional predicates on cut targets become stream
			// selections (σ_position, §3.3). The filter must wrap the
			// target's own scan before any join multiplies the stream:
			// position() counts the target's instances, not joined rows.
			// The nested (non-scan) case is rejected in Build with a
			// fragment error and runs navigationally.
			st := obs.NewOpStats("PositionFilter", "position()=%d", pos)
			st.EstOut = 1
			st.Adopt(c.stats)
			c.op = join.Instrument(&join.PositionFilter{Input: c.op, Slot: p.slotOf(n.Root), Pos: pos}, st)
			c.stats = st
		}
	}

	// Wire the //-joins in decomposition (BFS) order: each link's parent
	// NoK is already in a component when the link is processed.
	for _, l := range d.Links {
		if l.IsScan() {
			continue
		}
		parentComp := findComp(p.noKOfVertex(l.Parent))
		if parentComp == nil {
			return nil, nil, fmt.Errorf("plan: link parent %s has no component", l.Parent.Label())
		}
		op, st, err := p.descJoin(parentComp.op, parentComp.stats, matchers[l.Child], l)
		if err != nil {
			return nil, nil, err
		}
		parentComp.op = op
		parentComp.stats = st
		parentComp.noks[l.Child] = true
	}

	// Crossing edges: joins between components, selections within one.
	var filters []*core.Crossing
	for _, c := range p.Query.Tree.Crossings {
		if p.usedCrossings[c] {
			continue
		}
		fromC := findComp(p.noKOfVertex(c.From))
		toC := findComp(p.noKOfVertex(c.To))
		if fromC == nil || toC == nil {
			return nil, nil, fmt.Errorf("plan: crossing %s endpoints not planned", c)
		}
		if fromC == toC {
			filters = append(filters, c)
			continue
		}
		kind := p.crossJoin(fromC, toC, p.spans(fromC, toC), "")
		p.note("crossing %s joins two components (%s)", c, kind)
		removeComp(toC)
	}

	// Any components still disconnected combine by Cartesian product.
	for len(comps) > 1 {
		a, b := comps[0], comps[1]
		p.note("cartesian product of disconnected components")
		p.crossJoin(a, b, nil, "cartesian product")
		removeComp(b)
	}
	if len(comps) == 0 {
		st := obs.NewOpStats("Empty", "no components")
		return join.Instrument(join.NewSliceOperator(nil), st), st, nil
	}
	op, stats := comps[0].op, comps[0].stats

	if limit, ok := p.Query.RowLimit(); ok && limit > 0 {
		p.limitRows(comps[0], len(filters) == 0, limit)
	}
	for _, c := range filters {
		st := obs.NewOpStats("CrossingFilter", "σ %s", c)
		st.Adopt(stats)
		op = join.Instrument(&join.CrossingFilter{Input: op, Crossing: c,
			FromSlot: p.slotOf(c.From), ToSlot: p.slotOf(c.To), Stats: st}, st)
		stats = st
	}

	return op, stats, nil
}

// limitRows applies the query's row limit to a plan whose root is the
// component root, with no filter above it when unfiltered. The executor
// truncates every plan's rows, in iteration order, to the limit. When
// the root is the bare base scan of the for-variable's NoK — no join or
// filter above it, the for-vertex its root and no other for-vertex in
// it — its emissions are the for-clause's bindings in iteration order,
// one instance each, so the run also stops pulling after the limit's
// last row, and the scan's output estimate is capped to match.
func (p *Plan) limitRows(root *component, unfiltered bool, limit int) {
	bare := unfiltered && root.stats == root.seedStats && root.seed.Root.ForBound
	for v := range root.seed.Members {
		bare = bare && (!v.ForBound || v == root.seed.Root)
	}
	if !bare {
		p.note("limit %d on $%s: rows truncated after the plan (its root is not the for-variable's bare scan)",
			limit, p.Query.Pos)
		return
	}
	p.stopAfter = limit
	root.stats.EstOut = min(root.stats.EstOut, float64(limit))
	p.note("limit %d on $%s: the scan stops after row %d", limit, p.Query.Pos, limit)
}

// spans lists the unused crossings between components a and b, in
// query order, oriented with a as the outer input.
func (p *Plan) spans(a, b *component) []join.Span {
	var out []join.Span
	for _, c := range p.Query.Tree.Crossings {
		if p.usedCrossings[c] {
			continue
		}
		from, to := p.noKOfVertex(c.From), p.noKOfVertex(c.To)
		if a.noks[from] && b.noks[to] || b.noks[from] && a.noks[to] {
			out = append(out, join.Span{Crossing: c, FromSlot: p.slotOf(c.From), ToSlot: p.slotOf(c.To),
				FromInner: b.noks[from]})
		}
	}
	return out
}

// crossJoin joins component b into a on spans, every crossing between
// them, and describes the operator chosen: a hash join keyed on the first
// hashable (non-negated =) crossing with the others tested on each
// candidate pair, else a nested loop testing all of them on every pair
// (a Cartesian product when there are none). Either way no crossing
// between the two is left to a filter above the join. detail names the
// join in EXPLAIN when it has no crossing to name.
func (p *Plan) crossJoin(a, b *component, spans []join.Span, detail string) string {
	k := slices.IndexFunc(spans, func(s join.Span) bool { return s.Crossing.Hashable() })
	if k >= 0 {
		spans = slices.Concat(spans[k:k+1], spans[:k], spans[k+1:]) // the key leads
	}
	names := make([]string, len(spans))
	for i, s := range spans {
		p.markCrossingUsed(s.Crossing)
		names[i] = s.Crossing.String()
	}
	var op join.Operator
	var st *obs.OpStats
	kind := "nested-loop"
	if k >= 0 {
		kind = "hash join keyed on " + names[0]
		detail = "crossing " + names[0]
		if len(names) > 1 {
			detail += "; residual " + strings.Join(names[1:], " and ")
		}
		st = obs.NewOpStats("HashJoin", detail)
		key := spans[0].Crossing
		st.EstNodes = p.cardinality(key.From) + p.cardinality(key.To)
		hj := &join.HashJoin{Outer: a.op, Inner: b.op, Key: spans[0], Gov: p.gov, Stats: st}
		if len(spans) > 1 {
			hj.Residual = join.SpansPredicate(spans[1:])
		}
		p.watch(func() error { return hj.Err })
		op = hj
	} else {
		if len(spans) > 0 {
			detail = "crossing " + strings.Join(names, " and ")
		}
		st = obs.NewOpStats("NestedLoopJoin", detail)
		if len(spans) > 0 {
			st.EstNodes = p.cardinality(spans[0].Crossing.From) * p.cardinality(spans[0].Crossing.To)
		}
		nl := &join.NestedLoopJoin{Outer: a.op, Inner: b.op, Pred: join.SpansPredicate(spans), Gov: p.gov, Stats: st}
		p.watch(func() error { return nl.Err })
		op = nl
	}
	st.Adopt(a.stats, b.stats)
	a.op = join.Instrument(op, st)
	a.stats = st
	for n := range b.noks {
		a.noks[n] = true
	}
	return kind
}

// markCrossingUsed records a crossing already applied as a join
// predicate so it is not re-applied as a filter.
func (p *Plan) markCrossingUsed(c *core.Crossing) {
	if p.usedCrossings == nil {
		p.usedCrossings = make(map[*core.Crossing]bool)
	}
	p.usedCrossings[c] = true
}

// baseScan builds a NoK's scan: its anchors are the postings of the
// root's tag test in the tag index. Its stats node carries the cost
// model's scan estimate and receives the scan's actual counters.
func (p *Plan) baseScan(m *nok.Matcher) (*nok.Iterator, join.Operator, *obs.OpStats) {
	root, test := m.NoK.Root, m.RootTest()
	p.note("NoK%d anchors via tag index %q (%d candidates)", m.NoK.Index, test, p.opts.Index.Count(test))
	st := obs.NewOpStats("NoKScan", "NoK%d index(%s)", m.NoK.Index, test)
	st.EstNodes = p.staticCardinality(root)
	st.EstOut = p.cardinality(root)
	// A cached template's first run records this scan's est/act counters
	// under the root label — the key CardHints resolve on a replan.
	st.FeedbackKey = root.Label()
	it := nok.NewIterator(m, p.opts.Index.Stream(test))
	it.Gov = p.gov
	it.Stats = st
	p.watch(func() error { return it.Err })
	return it, join.Instrument(it, st), st
}

// descJoin builds the structural join for one cut //-edge under the
// plan's strategy, wiring the outer's stats node (and the inner scan's,
// when the inner is a base scan) as children of the join's.
func (p *Plan) descJoin(outer join.Operator, outerStats *obs.OpStats, inner *nok.Matcher, l core.Link) (join.Operator, *obs.OpStats, error) {
	outerSlot := p.slotOf(l.Parent)
	innerSlot := p.slotOf(l.Child.Root)
	// Per pair when the inner NoK binds a for-variable anywhere, not only
	// at its root: the matcher unnests one instance per binding ($y in
	// $x//b/a), and grouping them under one outer match would merge rows.
	perPair := false
	for v := range l.Child.Members {
		perPair = perPair || v.ForBound
	}
	optional := l.Mode == core.Optional
	detail := "%s//NoK%d"
	// Output-cardinality estimate: per-pair joins emit about one instance
	// per inner match; grouping joins emit about one per outer match.
	estOut := p.cardinality(l.Parent)
	if perPair {
		estOut = p.cardinality(l.Child.Root)
	}
	// The bounded nested loop is the pipelined join re-reading its inner
	// inside each outer instance's region.
	rescan := p.Strategy == BoundedNL
	if !rescan && p.Strategy != Pipelined {
		return nil, nil, fmt.Errorf("plan: strategy %s cannot build //-joins", p.Strategy)
	}
	name, kind, note := "PipelinedDescJoin", "pipelined", "pipelined merge join"
	if rescan {
		name, kind, note = "BoundedNLJoin", "bounded nested-loop", "bounded nested-loop join"
	}
	semi := !perPair && !optional && p.Decomp.Unread(l.Child)
	if semi {
		detail += " semi"
		note = kind + " semi-join (inner unread: one witness per outer item)"
	}
	p.note("link %s//NoK%d: %s", label{l.Parent}, l.Child.Index, note)
	it, innerOp, innerStats := p.baseScan(inner)
	st := obs.NewOpStats(name, detail, label{l.Parent}, l.Child.Index)
	st.EstNodes = p.cardinality(l.Parent) + p.cardinality(l.Child.Root)
	st.EstOut = estOut
	st.Adopt(outerStats, innerStats)
	pl := &join.PipelinedDescJoin{
		Outer: outer, Inner: innerOp,
		OuterSlot: outerSlot, InnerSlot: innerSlot,
		PerPair: perPair, Semi: semi, Optional: optional,
		Gov:   p.gov,
		Stats: st,
	}
	if rescan {
		pl.Rescan = it.Reseat
		st.EstNodes = p.cardinality(l.Parent) * p.avgRegion(l.Parent)
		// What a rescanned inner emits counts the outer regions it
		// re-read, not its vertex's cardinality: feedback must not learn
		// from it.
		innerStats.FeedbackKey = ""
	}
	p.watch(func() error { return pl.Err })
	return join.Instrument(pl, st), st, nil
}

// runTwig runs the holistic TwigStack, at build time, and keeps its rows
// as they are: one column per query variable's vertex, in returning-slot
// order. No NestedList is built.
func (p *Plan) runTwig() (*Instances, *obs.OpStats, error) {
	root := p.Query.Tree.Roots[0]
	start := root
	if root.IsDocRoot() {
		start = root.Children[0]
	}
	ts, err := join.NewTwigStack(start, p.opts.Index)
	if err != nil {
		return nil, nil, err
	}
	ts.Gov = p.gov
	st := obs.NewOpStats("TwigStack", "twig rooted at %s", label{start})
	for _, v := range p.Query.Tree.Vertices {
		if !v.IsDocRoot() {
			if st.EstNodes < 0 {
				st.EstNodes = 0
			}
			st.EstNodes += p.cardinality(v)
		}
	}
	ts.Stats = st
	// Keep only the variables' bindings, in returning-slot order: the
	// executor needs distinct variable combinations, not every
	// existential witness, and rows in column order are in document order
	// of their returning slots. One row per combination means the output
	// estimate comes from the kept vertices (the widest dominates), and
	// the first run's row count is observed under that vertex's label —
	// the cardinality the estimate took and a replan's hint replaces.
	vars := make(map[*core.Vertex]bool, len(p.Query.Vars))
	for _, v := range p.Query.Vars {
		vars[v] = true
	}
	for _, rn := range p.Query.Return.Nodes {
		if rn.Vertex != nil && vars[rn.Vertex] {
			ts.Keep = append(ts.Keep, rn.Vertex)
			if c := p.cardinality(rn.Vertex); c > st.EstOut {
				st.EstOut, st.FeedbackKey = c, rn.Vertex.Label()
			}
		}
	}
	if p.stopAfter == 0 {
		st.EstOut = 0
		return &Instances{Cols: ts.Keep}, st, nil
	}
	if limit, ok := p.Query.RowLimit(); ok {
		p.note("limit %d on $%s: rows truncated after the plan (TwigStack emits all of them)", limit, p.Query.Pos)
	}
	// Charge the run's time to the operator under EXPLAIN ANALYZE.
	if p.opts.Analyze {
		t0 := time.Now()
		defer func() { st.AddElapsed(time.Since(t0)) }()
	}
	rows, err := ts.Run()
	if err != nil {
		// A governed abort must still hand back the stats recorded up to
		// the abort.
		return nil, st, err
	}
	p.note("TwigStack produced %d matches (%d stack pushes)", len(rows), ts.PushCount)
	return &Instances{Rows: rows, Cols: ts.Keep}, st, nil
}

// label formats as its vertex's label. It is a pointer to box, so an
// EXPLAIN note or detail naming a vertex allocates nothing for it until
// EXPLAIN renders it.
type label struct{ v *core.Vertex }

func (l label) String() string { return l.v.Label() }

// noKOfVertex resolves the NoK containing a vertex.
func (p *Plan) noKOfVertex(v *core.Vertex) *core.NoK {
	n, _ := p.Decomp.NoKOf(v)
	return n
}

// slotOf resolves a returning vertex's slot.
func (p *Plan) slotOf(v *core.Vertex) int {
	if rn, ok := p.Query.Return.ByVertex(v); ok {
		return rn.Slot
	}
	return 0
}

// trivialNoK reports whether the NoK is a bare document-root vertex no
// variable binds: it contributes nothing to instances. A bound one scans
// to the one document node its variable takes.
func trivialNoK(n *core.NoK) bool {
	return n.Root.IsDocRoot() && n.Size() == 1 && !n.Root.Returning
}
