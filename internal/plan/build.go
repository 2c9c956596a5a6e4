package plan

import (
	"fmt"
	"time"

	"blossomtree/internal/core"
	"blossomtree/internal/join"
	"blossomtree/internal/nestedlist"
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

	// Merged-NoK optimization (§4.2): evaluate every sequentially-scanned
	// NoK in one shared document traversal instead of one scan each. The
	// traversal is charged to the first replay's stats, so the plan's
	// scanned total is the one traversal it made.
	if p.opts.MergeScans && p.opts.Index == nil && p.Strategy != BoundedNL {
		var ms []*nok.Matcher
		for _, n := range d.NoKs {
			if !trivialNoK(n) {
				ms = append(ms, matchers[n])
			}
		}
		var first *obs.OpStats
		if len(ms) > 0 {
			first = p.scanStats(ms[0], "replay")
		}
		results, err := nok.MultiScan(ms, p.doc, p.gov, first)
		if err != nil {
			return nil, first, err
		}
		p.preScanned = make(map[*core.NoK]replay, len(ms))
		for i, m := range ms {
			st := first
			if i > 0 {
				st = p.scanStats(m, "replay")
			}
			p.preScanned[m.NoK] = replay{ls: results[i], st: st}
		}
		p.note("merged %d NoK scans into one traversal", len(ms))
	}

	linked := make(map[*core.NoK]bool)
	for _, l := range d.Links {
		linked[l.Child] = true
	}

	var comps []*component
	newComponent := func(n *core.NoK) *component {
		op, st := p.baseScan(matchers[n])
		c := &component{op: op, stats: st, noks: map[*core.NoK]bool{n: true}}
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

	// Pattern-tree root NoKs seed the components (skipping trivial
	// doc-root-only NoKs, which carry no slots).
	for _, n := range d.NoKs {
		if !linked[n] && !trivialNoK(n) {
			newComponent(n)
		}
	}

	// Wire the cut //-edges in decomposition (BFS) order: each link's
	// parent NoK is already in a component when the link is processed.
	for _, l := range d.Links {
		childM := matchers[l.Child]
		if l.IsScan() {
			// Cut edge from a document root: the child NoK scans the
			// whole document. It either seeds a new component or
			// Cartesian-joins with the component already holding other
			// NoKs of the query (the for × for case of Example 1).
			parentComp := findComp(p.noKOfVertex(l.Parent))
			childComp := newComponent(l.Child)
			if pos, has := l.Child.Root.PositionConstraint(); has {
				// Positional predicates on cut targets become stream
				// selections (σ_position, §3.3). The filter must wrap the
				// target's own scan before any join multiplies the stream:
				// position() counts the target's instances, not joined
				// rows. The nested (non-scan) case is rejected in Build
				// with a fragment error and runs navigationally.
				slot := p.slotOf(l.Child.Root)
				st := obs.NewOpStats("PositionFilter", fmt.Sprintf("position()=%d", pos))
				st.EstOut = 1
				st.Adopt(childComp.stats)
				childComp.op = join.Instrument(&join.PositionFilter{Input: childComp.op, Slot: slot, Pos: pos}, st)
				childComp.stats = st
			}
			if parentComp != nil && parentComp != childComp {
				p.combine(parentComp, childComp, nil, l)
				removeComp(childComp)
			}
			continue
		}
		parentComp := findComp(p.noKOfVertex(l.Parent))
		if parentComp == nil {
			return nil, nil, fmt.Errorf("plan: link parent %s has no component", l.Parent.Label())
		}
		op, st, err := p.descJoin(parentComp.op, parentComp.stats, childM, l)
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
		fromSlot, toSlot := p.slotOf(c.From), p.slotOf(c.To)
		p.note("crossing %s joins two components (nested-loop)", c)
		st := obs.NewOpStats("NestedLoopJoin", fmt.Sprintf("crossing %s", c))
		st.EstNodes = p.cardinality(c.From) * p.cardinality(c.To)
		st.Adopt(fromC.stats, toC.stats)
		nl := &join.NestedLoopJoin{
			Outer: fromC.op,
			Inner: toC.op,
			Pred:  join.CrossingPredicate(c, fromSlot, toSlot),
			Gov:   p.gov,
			Stats: st,
		}
		p.watch(func() error { return nl.Err })
		fromC.op = join.Instrument(nl, st)
		fromC.stats = st
		for n := range toC.noks {
			fromC.noks[n] = true
		}
		removeComp(toC)
	}

	// Any components still disconnected combine by Cartesian product.
	for len(comps) > 1 {
		a, b := comps[0], comps[1]
		p.note("cartesian product of disconnected components")
		st := obs.NewOpStats("NestedLoopJoin", "cartesian product")
		st.Adopt(a.stats, b.stats)
		nl := &join.NestedLoopJoin{Outer: a.op, Inner: b.op, Gov: p.gov, Stats: st,
			Pred: func(_, _ *nestedlist.List) (bool, error) { return true, nil }}
		p.watch(func() error { return nl.Err })
		a.op = join.Instrument(nl, st)
		a.stats = st
		for n := range b.noks {
			a.noks[n] = true
		}
		removeComp(b)
	}
	if len(comps) == 0 {
		st := obs.NewOpStats("Empty", "no components")
		return join.Instrument(join.NewSliceOperator(nil), st), st, nil
	}
	op, stats := comps[0].op, comps[0].stats

	for _, c := range filters {
		st := obs.NewOpStats("CrossingFilter", fmt.Sprintf("σ %s", c))
		st.Adopt(stats)
		op = join.Instrument(&join.CrossingFilter{Input: op, Crossing: c,
			FromSlot: p.slotOf(c.From), ToSlot: p.slotOf(c.To), Stats: st}, st)
		stats = st
	}

	return op, stats, nil
}

// combine Cartesian-joins two components, using any crossing that spans
// them as the join predicate when available (the ϕ-join of Figure 5).
func (p *Plan) combine(a, b *component, _ *core.Crossing, l core.Link) {
	var pred join.Predicate
	for _, c := range p.Query.Tree.Crossings {
		fromIn := a.noks[p.noKOfVertex(c.From)]
		toIn := b.noks[p.noKOfVertex(c.To)]
		if fromIn && toIn {
			pred = join.CrossingPredicate(c, p.slotOf(c.From), p.slotOf(c.To))
			p.markCrossingUsed(c)
			p.note("pushed crossing %s into the %s-join", c, l.Mode)
			break
		}
	}
	if pred == nil {
		pred = func(_, _ *nestedlist.List) (bool, error) { return true, nil }
		p.note("cartesian join of independent for-clauses")
	}
	st := obs.NewOpStats("NestedLoopJoin", fmt.Sprintf("%s-join of for-clauses", l.Mode))
	st.Adopt(a.stats, b.stats)
	nl := &join.NestedLoopJoin{Outer: a.op, Inner: b.op, Pred: pred, Gov: p.gov, Stats: st}
	p.watch(func() error { return nl.Err })
	a.op = join.Instrument(nl, st)
	a.stats = st
	for n := range b.noks {
		a.noks[n] = true
	}
}

// markCrossingUsed records a crossing already applied as a join
// predicate so it is not re-applied as a filter.
func (p *Plan) markCrossingUsed(c *core.Crossing) {
	if p.usedCrossings == nil {
		p.usedCrossings = make(map[*core.Crossing]bool)
	}
	p.usedCrossings[c] = true
}

// replay is a NoK's share of the merged scan: its instances, and the
// stats node its replaying base scan reports under.
type replay struct {
	ls []*nestedlist.List
	st *obs.OpStats
}

// scanStats is the stats node of a NoK's base scan: it carries the cost
// model's scan estimate and receives the scan's actual counters.
func (p *Plan) scanStats(m *nok.Matcher, kind string) *obs.OpStats {
	st := obs.NewOpStats("NoKScan", fmt.Sprintf("NoK%d %s", m.NoK.Index, kind))
	st.EstNodes = p.scanCost(m.NoK)
	st.EstOut = p.cardinality(m.NoK.Root)
	// A cached template's first run records this scan's est/act counters
	// under the root label — the key CardHints resolve on a replan.
	st.FeedbackKey = m.NoK.Root.Label()
	return st
}

// baseScan picks the access method for a NoK's anchors: a replay of the
// merged scan, tag-index scan when an index exists and the root has a
// selective name test, sequential scan otherwise.
func (p *Plan) baseScan(m *nok.Matcher) (join.Operator, *obs.OpStats) {
	if r, ok := p.preScanned[m.NoK]; ok {
		return join.Instrument(join.NewSliceOperator(r.ls), r.st), r.st
	}
	if p.opts.Index != nil && !m.NoK.Root.IsDocRoot() && m.RootTest() != "*" && len(m.NoK.Root.Constraints) == 0 {
		p.note("NoK%d anchors via tag index %q (%d candidates)",
			m.NoK.Index, m.RootTest(), p.opts.Index.Count(m.RootTest()))
		st := p.scanStats(m, fmt.Sprintf("index(%s)", m.RootTest()))
		it := nok.NewTagIterator(m, p.opts.Index)
		it.Gov = p.gov
		it.Stats = st
		p.watch(func() error { return it.Err })
		return join.Instrument(it, st), st
	}
	p.note("NoK%d anchors via sequential scan", m.NoK.Index)
	st := p.scanStats(m, "seq")
	it := nok.NewIterator(m, p.doc)
	it.Gov = p.gov
	it.Stats = st
	p.watch(func() error { return it.Err })
	return join.Instrument(it, st), st
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
	detail := fmt.Sprintf("%s//NoK%d", l.Parent.Label(), l.Child.Index)
	// Output-cardinality estimate: per-pair joins emit about one instance
	// per inner match; grouping joins emit about one per outer match.
	estOut := p.cardinality(l.Parent)
	if perPair {
		estOut = p.cardinality(l.Child.Root)
	}
	boundedNL := func() (join.Operator, *obs.OpStats, error) {
		st := obs.NewOpStats("BoundedNLJoin", detail)
		st.EstNodes = p.cardinality(l.Parent) * p.avgRegion(l.Parent)
		st.EstOut = estOut
		st.Adopt(outerStats)
		bn := &join.BoundedNLJoin{
			Outer: outer, OuterSlot: outerSlot,
			Inner: inner, InnerSlot: innerSlot,
			PerPair: perPair, Optional: optional,
			Gov: p.gov, Stats: st,
		}
		p.watch(func() error { return bn.Err })
		return join.Instrument(bn, st), st, nil
	}
	switch p.Strategy {
	case Pipelined:
		semi := !perPair && !optional && p.Decomp.Unread(l.Child)
		if semi {
			detail += " semi"
			p.note("link %s//NoK%d: pipelined semi-join (inner unread: one witness per outer item)", l.Parent.Label(), l.Child.Index)
		} else {
			p.note("link %s//NoK%d: pipelined merge join", l.Parent.Label(), l.Child.Index)
		}
		innerOp, innerStats := p.baseScan(inner)
		st := obs.NewOpStats("PipelinedDescJoin", detail)
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
		p.watch(func() error { return pl.Err })
		return join.Instrument(pl, st), st, nil
	case BoundedNL:
		p.note("link %s//NoK%d: bounded nested-loop join", l.Parent.Label(), l.Child.Index)
		return boundedNL()
	default:
		return nil, nil, fmt.Errorf("plan: strategy %s cannot build //-joins", p.Strategy)
	}
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
	st := obs.NewOpStats("TwigStack", fmt.Sprintf("twig rooted at %s", start.Label()))
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
