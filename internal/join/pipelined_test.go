package join

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"blossomtree/internal/core"
	"blossomtree/internal/flwor"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/nok"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

// plQuery is a path query (or a FLWOR of for-clauses) compiled for the
// pipelined strategy over a tag index; chain wires a fresh operator tree
// for it.
type plQuery struct {
	q  *core.Query
	d  *core.Decomposition
	ix *index.TagIndex
	// semi runs the grouping joins over unread inners as semi-joins, as
	// the planner does.
	semi bool
}

func compilePL(t testing.TB, doc *xmltree.Document, query string) *plQuery {
	t.Helper()
	var q *core.Query
	var err error
	if strings.HasPrefix(query, "for ") {
		q, err = core.FromFLWOR(flwor.MustParse(query))
	} else {
		q, err = core.FromPath(xpath.MustParse(query))
	}
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	return &plQuery{q: q, d: d, ix: index.Build(doc)}
}

// plChain is the operator tree the planner builds for a plQuery: the
// first NoK scanned, then one PipelinedDescJoin per cut //-edge, each
// over an index-anchored scan of the edge's child NoK.
type plChain struct {
	q      *core.Query
	top    Operator
	joins  []*PipelinedDescJoin // in link order; top is the last
	inners []*nok.Iterator      // joins[i].Inner, unwrapped
}

// chain wires the tree. wrap, when non-nil, replaces each inner scan by
// wrap(scan) — how the parity test hides a scan's Skipper side.
func (pq *plQuery) chain(t testing.TB, g *gov.Governor, wrap func(Operator) Operator) *plChain {
	t.Helper()
	q := pq.q
	scan := func(n *core.NoK) *nok.Iterator {
		m, err := nok.NewMatcher(n, q.Return)
		if err != nil {
			t.Fatal(err)
		}
		it := nok.NewTagIterator(m, pq.ix)
		it.Gov = g
		it.Stats = obs.NewOpStats("NoKScan", n.Root.Label())
		return it
	}
	c := &plChain{q: q}
	for _, l := range pq.d.Links {
		if l.IsScan() {
			c.top = scan(l.Child)
			continue
		}
		outer, _ := q.Return.ByVertex(l.Parent)
		inner, _ := q.Return.ByVertex(l.Child.Root)
		it := scan(l.Child)
		var innerOp Operator = it
		if wrap != nil {
			innerOp = wrap(it)
		}
		j := &PipelinedDescJoin{
			Outer: c.top, Inner: innerOp,
			OuterSlot: outer.Slot, InnerSlot: inner.Slot,
			PerPair: l.Child.Root.ForBound, Optional: l.Mode == core.Optional,
			Gov: g, Stats: obs.NewOpStats("PipelinedDescJoin", l.Parent.Label()),
		}
		j.Semi = pq.semi && !j.PerPair && !j.Optional && pq.d.Unread(l.Child)
		c.top, c.joins, c.inners = j, append(c.joins, j), append(c.inners, it)
	}
	return c
}

func buildPLChain(t testing.TB, doc *xmltree.Document, query string, g *gov.Governor, wrap func(Operator) Operator) *plChain {
	t.Helper()
	return compilePL(t, doc, query).chain(t, g, wrap)
}

func (c *plChain) err() error {
	for _, j := range c.joins {
		if j.Err != nil {
			return j.Err
		}
	}
	for _, it := range c.inners {
		if it.Err != nil {
			return it.Err
		}
	}
	return nil
}

// wideOuterDoc is the 1 × N × M shape: one s holding N m's, the first M
// of which hold one l; every m also holds a filler so that the l's are
// spread over the document.
func wideOuterDoc(t testing.TB, n, m int) *xmltree.Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r><s>")
	for i := 0; i < n; i++ {
		sb.WriteString("<m><f/>")
		if i%(n/m) == 0 {
			sb.WriteString("<l/>")
		}
		sb.WriteString("</m>")
	}
	sb.WriteString("</s></r>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestPipelinedJoinIsLinear pins the merge's cost on the shape that made
// it quadratic: one outer instance whose join slot holds N nodes, M
// inners. The comparison count is bounded by the inputs, and neither it
// nor the allocations per emitted pair may grow with N.
func TestPipelinedJoinIsLinear(t *testing.T) {
	const m = 50
	type cost struct{ cmp, allocs float64 }
	measure := func(n int) cost {
		doc := wideOuterDoc(t, n, m)
		// Materialize the grouping join below so only the per-pair join
		// on top of it is measured.
		pq := compilePL(t, doc, `//s//m//l`)
		outers := Drain(pq.chain(t, nil, nil).joins[0])
		if len(outers) != 1 {
			t.Fatalf("N=%d: %d outer instances, want 1", n, len(outers))
		}
		var cmp int64
		allocs := testing.AllocsPerRun(5, func() {
			j := pq.chain(t, nil, nil).joins[1]
			j.Outer = NewSliceOperator(outers)
			pairs := Drain(j)
			if j.Err != nil || len(pairs) != m {
				t.Fatalf("N=%d: %d pairs (err %v), want %d", n, len(pairs), j.Err, m)
			}
			cmp = j.Stats.Comparisons()
		})
		if bound := int64(n + 2*m); cmp > bound {
			t.Errorf("N=%d: %d comparisons, want <= outer nodes + 2*inners = %d", n, cmp, bound)
		}
		return cost{float64(cmp), allocs / m}
	}
	small, large := measure(1000), measure(2000)
	t.Logf("N=1000: %.0f cmp, %.1f allocs/pair; N=2000: %.0f cmp, %.1f allocs/pair",
		small.cmp, small.allocs, large.cmp, large.allocs)
	// Doubling N adds N outer nodes to pass, nothing per pair: the
	// comparison count stays under double, the allocations per pair stay
	// put (a few slice growths of the one-off flattening aside).
	if large.cmp >= 2*small.cmp {
		t.Errorf("comparisons doubled with N: %.0f -> %.0f", small.cmp, large.cmp)
	}
	if large.allocs > small.allocs*1.25 {
		t.Errorf("allocations per emitted pair grew with N: %.1f -> %.1f", small.allocs, large.allocs)
	}
}

// replay is a rewindable SliceOperator for allocation measurements.
type replay struct {
	ls  []*nestedlist.List
	pos int
}

func (r *replay) GetNext() *nestedlist.List {
	if r.pos >= len(r.ls) {
		return nil
	}
	r.pos++
	return r.ls[r.pos-1]
}

// TestPipelinedNonEmittingStepsDoNotAllocate: advancing over outers and
// inners that do not pair — loading and flattening the next outer,
// pulling, testing and dropping an inner — touches no heap once the
// join's buffers have seen the widest outer.
func TestPipelinedNonEmittingStepsDoNotAllocate(t *testing.T) {
	// The a's hold b's; the c's all sit between the b's or outside the
	// a's, so `//a//b//c` pairs nothing at its top join.
	doc := parse(t, `<r><c/><a><b><x/></b><c/><b><x/></b><c/></a><c/><a><c/><b><x/></b></a><c/></r>`)
	c := buildPLChain(t, doc, `//a//b//c`, nil, nil)
	outers := &replay{ls: Drain(c.joins[0])}
	inners := &replay{ls: Drain(c.inners[1])}
	if len(outers.ls) != 2 || len(inners.ls) != 6 {
		t.Fatalf("fixture: %d outers, %d inners", len(outers.ls), len(inners.ls))
	}
	j := c.joins[1]
	allocs := testing.AllocsPerRun(10, func() {
		outers.pos, inners.pos = 0, 0
		warm := *j
		*j = PipelinedDescJoin{Outer: outers, Inner: inners,
			OuterSlot: j.OuterSlot, InnerSlot: j.InnerSlot, PerPair: true}
		j.view, j.open, j.run, j.runOf = warm.view, warm.open, warm.run[:0], warm.runOf[:0]
		if l := j.GetNext(); l != nil || j.Err != nil {
			t.Fatalf("join emitted %v (err %v), want nothing", l, j.Err)
		}
	})
	if allocs != 0 {
		t.Errorf("non-emitting GetNext allocated %.0f times per run, want 0", allocs)
	}
}

// hideSkip wraps an operator so that it no longer is a Skipper.
type hideSkip struct{ Operator }

// TestPipelinedGovernorParity: skipping changes how postings are passed,
// not how many are charged. Over a document where most inner postings
// lie outside the outers, the node budget that lets the join finish is
// the same — to the node — whether the inner scan can skip or not, and
// every smaller budget aborts both.
func TestPipelinedGovernorParity(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 40; i++ {
		sb.WriteString("<b/><b/><b/>")
		if i%10 == 3 {
			sb.WriteString("<a><b/><x><b/></x></a>")
		}
	}
	sb.WriteString("</r>")
	doc := parse(t, sb.String())

	run := func(maxNodes int64, skippable bool) (charged int64, pairs int, err error) {
		g := gov.New(nil, gov.Budget{MaxNodes: maxNodes}, nil)
		var wrap func(Operator) Operator
		if !skippable {
			wrap = func(op Operator) Operator { return hideSkip{op} }
		}
		c := buildPLChain(t, doc, `//a//b`, g, wrap)
		pairs = len(Drain(c.top))
		return g.NodesScanned(), pairs, c.err()
	}

	full, pairs, err := run(1<<30, false)
	if err != nil || pairs != 8 {
		t.Fatalf("unbudgeted run: %d pairs, err %v", pairs, err)
	}
	skipFull, skipPairs, err := run(1<<30, true)
	if err != nil || skipPairs != pairs {
		t.Fatalf("unbudgeted skipping run: %d pairs, err %v", skipPairs, err)
	}
	if skipFull != full {
		t.Fatalf("skipping run charged %d nodes, plain run %d", skipFull, full)
	}
	if c := buildPLChain(t, doc, `//a//b`, nil, nil); len(Drain(c.top)) != pairs || c.inners[0].Stats.Skipped() == 0 {
		t.Fatal("fixture skipped nothing: the parity would be vacuous")
	}
	for _, budget := range []int64{1, full / 3, full / 2, full - 1, full} {
		for _, skippable := range []bool{false, true} {
			_, _, err := run(budget, skippable)
			if wantAbort := budget < full; wantAbort != errors.Is(err, gov.ErrBudgetExceeded) {
				t.Errorf("budget %d of %d, skippable=%v: err = %v, want abort = %v",
					budget, full, skippable, err, wantAbort)
			}
		}
	}

	// The semi-join takes one witness per a and skips the rest of it, and
	// is charged what the grouping join is.
	pq := compilePL(t, doc, `//a[.//b]`)
	grouped := func(maxNodes int64, semi bool) (int64, int, error) {
		g := gov.New(nil, gov.Budget{MaxNodes: maxNodes}, nil)
		pq.semi = semi
		c := pq.chain(t, g, nil)
		if c.joins[0].Semi != semi {
			t.Fatalf("semi=%v: the join has Semi=%v", semi, c.joins[0].Semi)
		}
		n := len(Drain(c.top))
		return g.NodesScanned(), n, c.err()
	}
	groupFull, as, err := grouped(1<<30, false)
	if err != nil || as != 4 {
		t.Fatalf("grouping run: %d a's, err %v", as, err)
	}
	semiFull, semiAs, err := grouped(1<<30, true)
	if err != nil || semiAs != as || semiFull != groupFull {
		t.Fatalf("semi run: %d a's charged %d (err %v), grouping %d a's charged %d", semiAs, semiFull, err, as, groupFull)
	}
	if _, _, err := grouped(semiFull, true); err != nil {
		t.Errorf("semi with budget %d = its total: %v", semiFull, err)
	}
	if _, _, err := grouped(semiFull-1, true); !errors.Is(err, gov.ErrBudgetExceeded) {
		t.Errorf("semi with budget %d, one under its total: err = %v, want abort", semiFull-1, err)
	}
}

// TestPipelinedGroupingKeepsAbsorbingPastGaps: with several outer nodes
// in one instance (//a[.//b//c] groups the b's under their a), an inner
// that falls between two of them must not end the absorption — the
// witnesses of the later outer nodes still count.
func TestPipelinedGroupingKeepsAbsorbingPastGaps(t *testing.T) {
	doc := parse(t, `<r><a><b id="1"><c/></b><c/><b id="2"/><c/><b id="3"><x><c/></x><c/></b></a></r>`)
	c := buildPLChain(t, doc, `//a//b//c`, nil, nil)
	// Make the top join group, as a predicate subtree would.
	top := c.joins[1]
	top.PerPair = false
	ls := Drain(top)
	if top.Err != nil || len(ls) != 1 {
		t.Fatalf("%d instances, err %v; want 1", len(ls), top.Err)
	}
	var ids []string
	ls[0].VisitSlot(top.OuterSlot, func(n *xmltree.Node) bool {
		id, _ := n.Attr("id")
		ids = append(ids, id)
		return true
	})
	if got := strings.Join(ids, ","); got != "1,3" {
		t.Errorf("witnessed b's = %s, want 1,3 (b 2 has no c; b 3's lie past a gap)", got)
	}
	if n := len(ls[0].ProjectSlot(top.InnerSlot)); n != 3 {
		t.Errorf("absorbed %d c's, want the 3 inside b's", n)
	}
}

// TestPipelinedOptionalAroundSkips: in optional mode every outer comes
// out exactly once and in order, matched or not, also when the inner
// stream is skipped forward between them and ends before they do.
func TestPipelinedOptionalAroundSkips(t *testing.T) {
	doc := parse(t, `<r><b/><a id="1"/><b/><b/><a id="2"><b/></a><b/><a id="3"/><a id="4"><x><b/><b/></x></a><a id="5"/></r>`)
	for _, perPair := range []bool{true, false} {
		c := buildPLChain(t, doc, `//a//b`, nil, nil)
		j := c.joins[0]
		j.Optional, j.PerPair = true, perPair
		var got []string
		for l := j.GetNext(); l != nil; l = j.GetNext() {
			id, _ := l.FirstNode(j.OuterSlot).Attr("id")
			got = append(got, fmt.Sprintf("%s:%d", id, len(l.ProjectSlot(j.InnerSlot))))
		}
		want := "1:0 2:1 3:0 4:2 5:0"
		if perPair {
			want = "1:0 2:1 3:0 4:1 4:1 5:0"
		}
		if j.Err != nil || strings.Join(got, " ") != want {
			t.Errorf("perPair=%v: got %v (err %v), want %s", perPair, got, j.Err, want)
		}
		if c.inners[0].Stats.Skipped() == 0 {
			t.Errorf("perPair=%v: the inner scan skipped nothing", perPair)
		}
	}
}

// TestPipelinedDuplicateOuterNodes: outer instances that repeat the
// previous one's join nodes — each (a, b) pair of the first join, joined
// again on its a — pair with the same inners, although the inner stream
// has moved past them; an outer with other nodes then carries on from
// the stream.
func TestPipelinedDuplicateOuterNodes(t *testing.T) {
	doc := parse(t, `<r><c/><a><b id="1"/><c id="x"/><b id="2"/><c id="y"/></a><c/><a><b id="3"/></a><a><c id="z"/><b id="4"/></a></r>`)
	pq := compilePL(t, doc, `for $x in doc("d")//a, $y in $x//b, $z in $x//c return $z`)
	ySlot, _ := pq.q.Return.ByVar("y")
	zSlot, _ := pq.q.Return.ByVar("z")
	ids := func(l *nestedlist.List, slot int) string {
		row := ""
		l.VisitSlot(slot, func(n *xmltree.Node) bool {
			id, _ := n.Attr("id")
			row += id
			return true
		})
		return row
	}
	for _, perPair := range []bool{true, false} {
		c := pq.chain(t, nil, nil)
		c.joins[1].PerPair = perPair
		var got []string
		for l := c.top.GetNext(); l != nil; l = c.top.GetNext() {
			got = append(got, ids(l, ySlot.Slot)+ids(l, zSlot.Slot))
		}
		want := "1x 1y 2x 2y 4z"
		if !perPair {
			want = "1xy 2xy 4z"
		}
		if err := c.err(); err != nil || strings.Join(got, " ") != want {
			t.Errorf("perPair=%v: got %v (err %v), want %s", perPair, got, err, want)
		}
	}
}

// TestPipelinedSkipsInnerWithEmptyJoinSlot: an inner instance that does
// not carry the join slot at all pairs with nothing and is passed over.
func TestPipelinedSkipsInnerWithEmptyJoinSlot(t *testing.T) {
	doc := parse(t, `<r><a><b/></a><a><b/></a></r>`)
	c := buildPLChain(t, doc, `//a//b`, nil, nil)
	j := c.joins[0]
	inners := Drain(c.inners[0])
	empty := nestedlist.NewInstance(c.q.Return)
	j.Inner = NewSliceOperator([]*nestedlist.List{empty, inners[0], empty, empty, inners[1], empty})
	if got := len(Drain(j)); got != 2 || j.Err != nil {
		t.Errorf("%d pairs (err %v), want 2", got, j.Err)
	}
}

// TestInstrumentedForwardsSkipTo: wrapping a scan for EXPLAIN ANALYZE
// keeps it a Skipper, and wrapping something that cannot skip makes the
// call a no-op.
func TestInstrumentedForwardsSkipTo(t *testing.T) {
	doc := parse(t, `<r><b/><b/><b/><a><b/></a></r>`)
	c := buildPLChain(t, doc, `//a//b`, nil, nil)
	it := c.inners[0]
	w := Instrument(it, obs.NewOpStats("NoKScan", "b"))
	s, ok := w.(Skipper)
	if !ok {
		t.Fatal("an instrumented index scan is not a Skipper")
	}
	a := index.Build(doc).Nodes("a")[0]
	s.SkipTo(a.Start)
	if l := s.GetNext(); l == nil || !a.IsAncestorOf(l.FirstNode(c.joins[0].InnerSlot)) {
		t.Errorf("after SkipTo(a) the scan returned %v, want the b inside a", l)
	}
	if it.ScannedNodes != 4 || it.Stats.Skipped() != 3 {
		t.Errorf("scanned %d skipped %d, want 4 and 3", it.ScannedNodes, it.Stats.Skipped())
	}
	Instrument(NewSliceOperator(nil), obs.NewOpStats("x", "")).(Skipper).SkipTo(5)
}

// outerItems renders, per emitted instance, the nodes of every join's
// outer slot: what a semi-join and a grouping join over the same inputs
// must agree on.
func outerItems(c *plChain, ls []*nestedlist.List) string {
	var sb strings.Builder
	for _, l := range ls {
		for _, j := range c.joins {
			l.VisitSlot(j.OuterSlot, func(n *xmltree.Node) bool {
				fmt.Fprintf(&sb, "%d,", n.Start)
				return true
			})
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestQuickSemiKeepsGroupingItems: on random non-recursive documents, the
// semi-join keeps exactly the outer items the grouping join keeps — over
// a skipping index scan and over an inner that can neither skip nor
// produce witnesses (read through the adapter) — and charges the same
// scan.
func TestQuickSemiKeepsGroupingItems(t *testing.T) {
	queries := []string{`//a[.//c]`, `//a[.//b/d]`, `//a[.//b[d]][.//e]`, `//r[.//b//d]//c`,
		`//b[.//d][.//e]`, `//a[.//c]/b`, `//a[.//*[.//d]]`}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomNonRecursive(r, 40+r.Intn(80))
		query := queries[r.Intn(len(queries))]
		pq := compilePL(t, doc, query)
		run := func(semi bool, wrap func(Operator) Operator) (string, int64, bool) {
			pq.semi = semi
			g := gov.New(nil, gov.Budget{}, nil)
			c := pq.chain(t, g, wrap)
			out := outerItems(c, Drain(c.top))
			any := false
			for _, j := range c.joins {
				any = any || j.Semi
			}
			if err := c.err(); err != nil {
				t.Logf("%s (semi=%v): %v", query, semi, err)
			}
			return out, g.NodesScanned(), any
		}
		want, wantScanned, _ := run(false, nil)
		got, scanned, semi := run(true, nil)
		hidden, hiddenScanned, _ := run(true, func(op Operator) Operator { return hideSkip{op} })
		if !semi {
			t.Logf("%s: no join ran as a semi-join", query)
			return false
		}
		if got != want || hidden != want {
			t.Logf("%s (seed %d): semi kept\n%s\nadapted semi kept\n%s\ngrouping kept\n%s", query, seed, got, hidden, want)
			return false
		}
		if scanned != wantScanned || hiddenScanned != wantScanned {
			t.Logf("%s (seed %d): scanned %d / %d, grouping %d", query, seed, scanned, hiddenScanned, wantScanned)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPipelinedSemiManyItemsPerInstance: in //r[.//b//d] one r instance
// carries every b in the b//d join's outer slot. The semi-join keeps the
// b's that hold a d and takes one witness per such b, skipping from it to
// the next b: only the d after b 2, which has no witness of its own to
// skip from, is pulled besides.
func TestPipelinedSemiManyItemsPerInstance(t *testing.T) {
	doc := parse(t, `<r><d/><b id="1"><d/><x><d/></x><d/></b><b id="2"/><d/><b id="3"><d/></b><b id="4"><x/><d/><d/></b></r>`)
	pq := compilePL(t, doc, `//r[.//b//d]`)
	pq.semi = true
	var st *obs.OpStats
	c := pq.chain(t, nil, func(op Operator) Operator {
		st = obs.NewOpStats("NoKScan", "")
		return Instrument(op, st)
	})
	j := c.joins[len(c.joins)-1]
	if !j.Semi {
		t.Fatal("the b//d join is not a semi-join")
	}
	ls := Drain(c.top)
	if err := c.err(); err != nil || len(ls) != 1 {
		t.Fatalf("%d instances, err %v; want 1", len(ls), err)
	}
	var ids []string
	ls[0].VisitSlot(j.OuterSlot, func(n *xmltree.Node) bool {
		id, _ := n.Attr("id")
		ids = append(ids, id)
		return true
	})
	if got := strings.Join(ids, ","); got != "1,3,4" {
		t.Errorf("kept b's = %s, want 1,3,4", got)
	}
	scan := c.inners[len(c.inners)-1].Stats
	if st.Emitted() != 4 || scan.Skipped() != 4 || scan.Scanned() != 8 {
		t.Errorf("d scan: emitted %d skipped %d scanned %d, want 4 witnesses, 4 skipped, all 8 charged",
			st.Emitted(), scan.Skipped(), scan.Scanned())
	}
}

// TestPipelinedSemiDuplicateOuterNodes: the per-pair join on b feeds the
// semi-join on the same a once per b, so consecutive outer instances
// carry the same a. The second one re-reads the witness from the run,
// although the inner stream has been skipped past the a: the c scan
// yields the witnesses in a 1 and a 3 and the c's the skips past them
// land on, and skips the c's before a 1 and inside it.
func TestPipelinedSemiDuplicateOuterNodes(t *testing.T) {
	doc := parse(t, `<r><c/><a><b id="1"/><c/><b id="2"/><c/></a><c/><a><b id="3"/></a><a><c/><b id="4"/></a><c/></r>`)
	pq := compilePL(t, doc, `for $x in doc("d")//a, $y in $x//b where exists($x//c) return $y`)
	ySlot, _ := pq.q.Return.ByVar("y")
	for _, semi := range []bool{false, true} {
		pq.semi = semi
		var st *obs.OpStats
		c := pq.chain(t, nil, func(op Operator) Operator {
			st = obs.NewOpStats("NoKScan", "")
			return Instrument(op, st)
		})
		top := c.joins[len(c.joins)-1]
		if top.Semi != semi {
			t.Fatalf("semi=%v: the exists join has Semi=%v", semi, top.Semi)
		}
		var got []string
		for l := c.top.GetNext(); l != nil; l = c.top.GetNext() {
			id, _ := l.FirstNode(ySlot.Slot).Attr("id")
			got = append(got, id)
			// Grouping absorbs the c's; the semi-join builds none.
			if absorbed := len(l.ProjectSlot(top.InnerSlot)) > 0; absorbed == semi {
				t.Errorf("semi=%v: $y %s carries c's = %v", semi, id, absorbed)
			}
		}
		if err := c.err(); err != nil || strings.Join(got, " ") != "1 2 4" {
			t.Errorf("semi=%v: got %v (err %v), want 1 2 4", semi, got, err)
		}
		if scan := c.inners[len(c.inners)-1].Stats; semi && (st.Emitted() != 4 || scan.Skipped() != 2) {
			t.Errorf("semi: c scan emitted %d skipped %d, want 4 and 2", st.Emitted(), scan.Skipped())
		}
	}
}

// TestPipelinedSemiNestedOuterItems: wildcard outer items nest even on a
// non-recursive document. After the first c marks x, the skip must stop
// at y, which starts inside x and holds the second c; skipping past x
// would leave y without its witness.
func TestPipelinedSemiNestedOuterItems(t *testing.T) {
	doc := parse(t, `<r><x id="x"><c id="1"/><y id="y"><c id="2"/></y></x><z id="z"/></r>`)
	pq := compilePL(t, doc, `//r[.//*[.//c]]`)
	for _, semi := range []bool{false, true} {
		pq.semi = semi
		c := pq.chain(t, nil, nil)
		j := c.joins[len(c.joins)-1]
		if j.Semi != semi {
			t.Fatalf("semi=%v: the *//c join has Semi=%v", semi, j.Semi)
		}
		ls := Drain(c.top)
		if err := c.err(); err != nil || len(ls) != 1 {
			t.Fatalf("semi=%v: %d instances, err %v; want 1", semi, len(ls), err)
		}
		var ids []string
		ls[0].VisitSlot(j.OuterSlot, func(n *xmltree.Node) bool {
			id, _ := n.Attr("id")
			ids = append(ids, id)
			return true
		})
		if got := strings.Join(ids, ","); got != "x,y" {
			t.Errorf("semi=%v: kept items %s, want x,y", semi, got)
		}
	}
}

// TestInstrumentedForwardsNextWitness: an instrumented scan still yields
// witnesses, counted as calls and emissions like instances are; an
// instrumented replay does not, and the join reads it through the
// adapter.
func TestInstrumentedForwardsNextWitness(t *testing.T) {
	doc := parse(t, `<r><b/><a><b/></a></r>`)
	c := buildPLChain(t, doc, `//a//b`, nil, nil)
	st := obs.NewOpStats("NoKScan", "b")
	w := Instrument(c.inners[0], st)
	if !witnesses(w) {
		t.Fatal("an instrumented index scan yields no witnesses")
	}
	var got []*xmltree.Node
	for n := w.(Witnesser).NextWitness(); n != nil; n = w.(Witnesser).NextWitness() {
		got = append(got, n)
	}
	if len(got) != 2 || st.Emitted() != 2 || st.Calls() != 3 {
		t.Errorf("%d witnesses, emitted %d in %d calls; want 2 in 3", len(got), st.Emitted(), st.Calls())
	}
	if witnesses(Instrument(NewSliceOperator(nil), obs.NewOpStats("x", ""))) {
		t.Error("an instrumented replay claims to yield witnesses")
	}
}
