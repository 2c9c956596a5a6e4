package join

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"blossomtree/internal/core"
	"blossomtree/internal/flwor"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/naveval"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/nok"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

func parse(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// randomNonRecursive builds a random document whose tag is determined by
// depth, so no element nests inside a same-tag element.
func randomNonRecursive(r *rand.Rand, maxNodes int) *xmltree.Document {
	tags := []string{"a", "b", "c", "d", "e", "f"}
	b := xmltree.NewBuilder()
	var gen func(depth, budget int) int
	gen = func(depth, budget int) int {
		used := 0
		kids := 1 + r.Intn(3)
		for i := 0; i < kids && used < budget; i++ {
			used++
			b.Start(tags[depth])
			if depth < len(tags)-1 && r.Intn(3) > 0 {
				used += gen(depth+1, budget-used)
			}
			b.End()
		}
		return used
	}
	b.Start("r")
	n := 1
	for n < maxNodes {
		n += gen(0, maxNodes-n)
	}
	b.End()
	return b.MustDone()
}

// twoNoKPipeline compiles //X…//Y… style queries into NoK iterators and
// the structural join between them, with the given join constructor.
type pipelineParts struct {
	q          *core.Query
	d          *core.Decomposition
	outerIt    *nok.Iterator
	innerM     *nok.Matcher
	innerIt    *nok.Iterator
	outerSlot  int
	innerSlot  int
	perPair    bool
	optional   bool
	resultSlot int
}

func buildTwoNoK(t *testing.T, doc *xmltree.Document, query string) pipelineParts {
	t.Helper()
	q, err := core.FromPath(xpath.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NoKs) != 3 {
		t.Fatalf("query %s: want exactly root + 2 NoKs, got:\n%s", query, d)
	}
	var link core.Link
	found := false
	for _, l := range d.Links {
		if !l.IsScan() {
			link = l
			found = true
		}
	}
	if !found {
		t.Fatalf("query %s has no join link", query)
	}
	outer := d.NoKs[1]
	inner := link.Child
	mOuter, err := nok.NewMatcher(outer, q.Return)
	if err != nil {
		t.Fatal(err)
	}
	mInner, err := nok.NewMatcher(inner, q.Return)
	if err != nil {
		t.Fatal(err)
	}
	outerSlot, _ := q.Return.ByVertex(link.Parent)
	innerSlot, _ := q.Return.ByVertex(inner.Root)
	resSlot, _ := q.Return.ByVar("result")
	return pipelineParts{
		q: q, d: d,
		outerIt:    nok.NewIterator(mOuter, doc),
		innerM:     mInner,
		innerIt:    nok.NewIterator(mInner, doc),
		outerSlot:  outerSlot.Slot,
		innerSlot:  innerSlot.Slot,
		perPair:    inner.Root.ForBound,
		optional:   link.Mode == core.Optional,
		resultSlot: resSlot.Slot,
	}
}

func projectResults(ls []*nestedlist.List, slot int) []*xmltree.Node {
	seen := map[*xmltree.Node]bool{}
	var out []*xmltree.Node
	for _, l := range ls {
		for _, n := range l.ProjectSlot(slot) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	slices.SortFunc(out, func(a, b *xmltree.Node) int { return a.Start - b.Start })
	return out
}

func oracle(t *testing.T, doc *xmltree.Document, query string) []*xmltree.Node {
	t.Helper()
	want, err := naveval.EvalPath(doc, xpath.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func sameNodes(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const sampleDoc = `<r>
  <a><x><b>1</b></x><b>2</b></a>
  <a><b>3</b></a>
  <a><x/></a>
  <b>4</b>
</r>`

func TestPipelinedDescJoin(t *testing.T) {
	doc := parse(t, sampleDoc)
	p := buildTwoNoK(t, doc, `//a//b`)
	j := &PipelinedDescJoin{
		Outer: p.outerIt, Inner: p.innerIt,
		OuterSlot: p.outerSlot, InnerSlot: p.innerSlot,
		PerPair: p.perPair, Optional: p.optional,
	}
	got := projectResults(Drain(j), p.resultSlot)
	if j.Err != nil {
		t.Fatal(j.Err)
	}
	want := oracle(t, doc, `//a//b`)
	if !sameNodes(got, want) {
		t.Errorf("PL //a//b: got %d nodes, want %d", len(got), len(want))
	}
}

func TestPipelinedExistentialPredicate(t *testing.T) {
	doc := parse(t, sampleDoc)
	// //a[//b]: inner NoK is existential (not for-bound), so each outer
	// emits at most once.
	p := buildTwoNoK(t, doc, `//a[//b]`)
	if p.perPair {
		t.Fatal("predicate NoK should not be per-pair")
	}
	j := &PipelinedDescJoin{
		Outer: p.outerIt, Inner: p.innerIt,
		OuterSlot: p.outerSlot, InnerSlot: p.innerSlot,
		PerPair: false, Optional: p.optional,
	}
	ls := Drain(j)
	if j.Err != nil {
		t.Fatal(j.Err)
	}
	if len(ls) != 2 {
		t.Fatalf("instances = %d, want 2 (two a's contain b's)", len(ls))
	}
	got := projectResults(ls, p.resultSlot)
	want := oracle(t, doc, `//a[//b]`)
	if !sameNodes(got, want) {
		t.Errorf("PL //a[//b]: got %v, want %v", got, want)
	}
}

func TestBoundedNLJoin(t *testing.T) {
	// Recursive document — the BNLJ territory.
	doc := parse(t, `<r><a><a><b/></a><b/></a><a/><b/></r>`)
	p := buildTwoNoK(t, doc, `//a//b`)
	j := &BoundedNLJoin{
		Outer: p.outerIt, OuterSlot: p.outerSlot,
		Inner: p.innerM, InnerSlot: p.innerSlot,
		PerPair: p.perPair, Optional: p.optional,
	}
	got := projectResults(Drain(j), p.resultSlot)
	if j.Err != nil {
		t.Fatal(j.Err)
	}
	want := oracle(t, doc, `//a//b`)
	if !sameNodes(got, want) {
		t.Errorf("BNLJ //a//b: got %d, want %d", len(got), len(want))
	}
	if j.ScannedNodes == 0 {
		t.Error("BNLJ reported no scanned nodes")
	}
}

func TestBoundedNLJoinBoundsScans(t *testing.T) {
	// The inner side must scan only within outer regions.
	doc := parse(t, `<r><a><b/></a><z><z/><z/><z/><z/><z/><z/></z></r>`)
	p := buildTwoNoK(t, doc, `//a//b`)
	j := &BoundedNLJoin{
		Outer: p.outerIt, OuterSlot: p.outerSlot,
		Inner: p.innerM, InnerSlot: p.innerSlot,
		PerPair: p.perPair,
	}
	Drain(j)
	if j.ScannedNodes > 3 {
		t.Errorf("BNLJ scanned %d nodes; the z-subtree should be skipped", j.ScannedNodes)
	}
}

// descPredicate is the structural //-join as a NestedLoopJoin predicate:
// some node of the outer slot properly contains the inner slot's node.
func descPredicate(outerSlot, innerSlot int) Predicate {
	return func(m, n *nestedlist.List) (bool, error) {
		inner := n.ProjectSlot(innerSlot)
		if len(inner) == 0 {
			return false, nil
		}
		for _, a := range m.ProjectSlot(outerSlot) {
			if a.IsAncestorOf(inner[0]) {
				return true, nil
			}
		}
		return false, nil
	}
}

func TestNestedLoopDescJoin(t *testing.T) {
	doc := parse(t, sampleDoc)
	p := buildTwoNoK(t, doc, `//a//b`)
	j := &NestedLoopJoin{
		Outer: p.outerIt, Inner: p.innerIt,
		Pred: descPredicate(p.outerSlot, p.innerSlot),
	}
	got := projectResults(Drain(j), p.resultSlot)
	if j.Err != nil {
		t.Fatal(j.Err)
	}
	want := oracle(t, doc, `//a//b`)
	if !sameNodes(got, want) {
		t.Errorf("NLJ //a//b: got %d, want %d", len(got), len(want))
	}
}

// TestQuickJoinAlgorithmsAgree: on random non-recursive documents, the
// pipelined join, the bounded nested-loop join and the naive nested-loop
// join all produce the same //-join result as the navigational oracle.
func TestQuickJoinAlgorithmsAgree(t *testing.T) {
	queries := []string{`//a//b`, `//b//c`, `//a//c`, `//a[//c]`, `//b[//d]`, `//a//d`}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomNonRecursive(r, 40+r.Intn(60))
		query := queries[r.Intn(len(queries))]
		want := make(map[*xmltree.Node]bool)
		wantList, err := naveval.EvalPath(doc, xpath.MustParse(query))
		if err != nil {
			return false
		}
		for _, n := range wantList {
			want[n] = true
		}

		check := func(name string, got []*xmltree.Node) bool {
			if len(got) != len(wantList) {
				t.Logf("%s on %s: %d vs oracle %d (seed %d)", name, query, len(got), len(wantList), seed)
				return false
			}
			for _, n := range got {
				if !want[n] {
					t.Logf("%s on %s: spurious node", name, query)
					return false
				}
			}
			return true
		}

		p := buildTwoNoK(t, doc, query)
		pl := &PipelinedDescJoin{Outer: p.outerIt, Inner: p.innerIt,
			OuterSlot: p.outerSlot, InnerSlot: p.innerSlot, PerPair: p.perPair, Optional: p.optional}
		if !check("PL", projectResults(Drain(pl), p.resultSlot)) || pl.Err != nil {
			return false
		}

		p = buildTwoNoK(t, doc, query)
		bn := &BoundedNLJoin{Outer: p.outerIt, OuterSlot: p.outerSlot,
			Inner: p.innerM, InnerSlot: p.innerSlot, PerPair: p.perPair, Optional: p.optional}
		if !check("BNLJ", projectResults(Drain(bn), p.resultSlot)) || bn.Err != nil {
			return false
		}

		p = buildTwoNoK(t, doc, query)
		nl := &NestedLoopJoin{Outer: p.outerIt, Inner: p.innerIt,
			Pred: descPredicate(p.outerSlot, p.innerSlot)}
		if !check("NLJ", projectResults(Drain(nl), p.resultSlot)) || nl.Err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickBNLJOnRecursiveDocs: BNLJ (built for recursive data) matches
// the oracle on recursive random documents.
func TestQuickBNLJOnRecursiveDocs(t *testing.T) {
	queries := []string{`//a//b`, `//a//a`, `//b[//a]`}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: []string{"a", "b", "c"}, MaxNodes: 50, MaxDepth: 8, TextProb: -1})
		query := queries[r.Intn(len(queries))]
		wantList, err := naveval.EvalPath(doc, xpath.MustParse(query))
		if err != nil {
			return false
		}
		p := buildTwoNoK(t, doc, query)
		bn := &BoundedNLJoin{Outer: p.outerIt, OuterSlot: p.outerSlot,
			Inner: p.innerM, InnerSlot: p.innerSlot, PerPair: p.perPair, Optional: p.optional}
		got := projectResults(Drain(bn), p.resultSlot)
		if bn.Err != nil {
			t.Logf("BNLJ error: %v", bn.Err)
			return false
		}
		if !sameNodes(got, wantList) {
			t.Logf("BNLJ %s: %d vs %d (seed %d)", query, len(got), len(wantList), seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// twigRoot extracts the non-docroot pattern root of a compiled path
// query.
func twigRoot(t *testing.T, query string) (*core.Query, *core.Vertex) {
	t.Helper()
	q, err := core.FromPath(xpath.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	root := q.Tree.Roots[0]
	if !root.IsDocRoot() {
		return q, root
	}
	if len(root.Children) != 1 {
		t.Fatalf("query %s: doc root with %d children", query, len(root.Children))
	}
	return q, root.Children[0]
}

// runTwig runs the twig rooted at root, keeping the given vertices, and
// returns its rows.
func runTwig(t *testing.T, root *core.Vertex, ix *index.TagIndex, keep ...*core.Vertex) ([][]*xmltree.Node, *TwigStack) {
	t.Helper()
	ts, err := NewTwigStack(root, ix)
	if err != nil {
		t.Fatal(err)
	}
	ts.Keep = keep
	rows, err := ts.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rows, ts
}

// column returns one column of the rows.
func column(rows [][]*xmltree.Node, i int) []*xmltree.Node {
	out := make([]*xmltree.Node, len(rows))
	for k, row := range rows {
		out[k] = row[i]
	}
	return out
}

// bruteTwig is the twig oracle: it assigns every twig vertex (pre-order,
// so a parent is bound before its children) to every document node its
// edge admits, and returns the distinct combinations of keep's bindings
// in document order of the columns.
func bruteTwig(doc *xmltree.Document, root *core.Vertex, keep []*core.Vertex) [][]*xmltree.Node {
	var order []*core.Vertex
	var walk func(v *core.Vertex)
	walk = func(v *core.Vertex) {
		order = append(order, v)
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(root)
	var elems []*xmltree.Node
	xmltree.Elements(doc.Root, func(n *xmltree.Node) { elems = append(elems, n) })
	bound := map[*core.Vertex]*xmltree.Node{}
	var rows [][]*xmltree.Node
	var assign func(i int)
	assign = func(i int) {
		if i == len(order) {
			row := make([]*xmltree.Node, len(keep))
			for k, v := range keep {
				row[k] = bound[v]
				if v.IsDocRoot() {
					row[k] = doc.Root
				}
			}
			rows = append(rows, row)
			return
		}
		v := order[i]
		for _, n := range elems {
			if !v.MatchesNode(n) {
				continue
			}
			if v == root {
				if v.Parent != nil && v.Parent.IsDocRoot() && v.ParentRel == core.RelChild && n.Level != 1 {
					continue
				}
			} else if !v.ParentRel.Holds(bound[v.Parent], n) {
				continue
			}
			bound[v] = n
			assign(i + 1)
		}
	}
	assign(0)
	slices.SortFunc(rows, compareRows)
	return slices.CompactFunc(rows, func(a, b []*xmltree.Node) bool { return compareRows(a, b) == 0 })
}

func sameRows(a, b [][]*xmltree.Node) bool {
	return slices.EqualFunc(a, b, func(x, y []*xmltree.Node) bool { return slices.Equal(x, y) })
}

func TestTwigStackSimple(t *testing.T) {
	doc := parse(t, sampleDoc)
	ix := index.Build(doc)
	q, root := twigRoot(t, `//a//b`)
	rows, ts := runTwig(t, root, ix, q.Vars["result"])
	want := oracle(t, doc, `//a//b`)
	if got := column(rows, 0); !sameNodes(got, want) {
		t.Errorf("TS //a//b: %v vs %v", got, want)
	}
	if ts.PushCount == 0 {
		t.Error("no pushes counted")
	}
}

func TestTwigStackAppendixQueries(t *testing.T) {
	docs := map[string]*xmltree.Document{
		"d1": xmlgen.MustGenerate("d1", xmlgen.Config{Seed: 5, TargetNodes: 1500}),
		"d2": xmlgen.MustGenerate("d2", xmlgen.Config{Seed: 5, TargetNodes: 1500}),
		"d5": xmlgen.MustGenerate("d5", xmlgen.Config{Seed: 5, TargetNodes: 1500}),
	}
	queries := map[string][]string{
		"d1": {`//a//b4`, `//a[//b2][//b1]//b3`, `//b1//c2//b1`, `//b1//c2[//c3]//b1`, `//a//c2/b1/c2/b1//c3`},
		"d2": {`//addresses//street_address//name_of_state`, `//addresses[//zip_code][//country_id]`,
			`//address[//name_of_state][//zip_code]//street_address`},
		"d5": {`//phdthesis//author`, `//phdthesis[//author][//school]`, `//www[//url]`,
			`//proceedings[//editor][//year][//url]`},
	}
	for id, doc := range docs {
		ix := index.Build(doc)
		for _, query := range queries[id] {
			t.Run(id+"/"+query, func(t *testing.T) {
				q, root := twigRoot(t, query)
				rows, _ := runTwig(t, root, ix, q.Vars["result"])
				want := oracle(t, doc, query)
				if got := column(rows, 0); !sameNodes(got, want) {
					t.Errorf("TS %s: %d nodes vs oracle %d", query, len(got), len(want))
				}
			})
		}
	}
}

// quickTwigQueries mixes ancestor-descendant twigs with parent-child
// edges — between vertices of one tag too, where only the levels tell a
// child from a deeper descendant — and roots anchored at the document
// element, wildcard vertices included.
var quickTwigQueries = []string{`//a//b`, `//a//b//c`, `//a[//b]//c`, `//a[//b][//c]`, `//a//a`,
	`//b[//a//c]`, `//a/b`, `//a/b//c`, `/a//b`, `//a[b/c]//a`, `//*[a]/b`,
	`//a/a`, `//a/a/a`, `//a[a]/b`, `//b/*/a`, `/a/b`, `/a//b/c`, `/*//a/a`, `/a[b]//c/a`}

// TestQuickTwigStackEqualsOracle: random recursive docs × random twigs,
// the result vertex kept alone.
func TestQuickTwigStackEqualsOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: []string{"a", "b", "c"}, MaxNodes: 50, MaxDepth: 8, TextProb: -1})
		query := quickTwigQueries[r.Intn(len(quickTwigQueries))]
		ix := index.Build(doc)
		q, err := core.FromPath(xpath.MustParse(query))
		if err != nil {
			return false
		}
		root := q.Tree.Roots[0].Children[0]
		ts, err := NewTwigStack(root, ix)
		if err != nil {
			t.Logf("NewTwigStack: %v", err)
			return false
		}
		ts.Keep = []*core.Vertex{q.Vars["result"]}
		rows, err := ts.Run()
		if err != nil {
			t.Logf("Run: %v", err)
			return false
		}
		want, err := naveval.EvalPath(doc, xpath.MustParse(query))
		if err != nil {
			return false
		}
		if got := column(rows, 0); !sameNodes(got, want) {
			t.Logf("TS %s: %d vs %d (seed %d)", query, len(got), len(want), seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickTwigStackKeepEqualsBruteForce: several kept vertices — every
// vertex, the document root with the result, and a random pair — give
// exactly the brute-force enumeration's distinct combinations, in order.
// Half the documents make c rare, so parents without a c inside are
// passed over and streams whose parent has no open entry jump ahead;
// either way the pass reads every stream to its end.
func TestQuickTwigStackKeepEqualsBruteForce(t *testing.T) {
	alphabets := [][]string{{"a", "b", "c"}, {"a", "a", "a", "a", "b", "b", "b", "b", "c"}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: alphabets[r.Intn(2)], MaxNodes: 40, MaxDepth: 7, TextProb: -1})
		query := quickTwigQueries[r.Intn(len(quickTwigQueries))]
		ix := index.Build(doc)
		q, err := core.FromPath(xpath.MustParse(query))
		if err != nil {
			return false
		}
		docRoot := q.Tree.Roots[0]
		root := docRoot.Children[0]
		var twig []*core.Vertex
		for _, v := range q.Tree.Vertices {
			if v != docRoot {
				twig = append(twig, v)
			}
		}
		pair := []*core.Vertex{twig[r.Intn(len(twig))], twig[r.Intn(len(twig))]}
		for _, keep := range [][]*core.Vertex{twig, {docRoot, q.Vars["result"]}, pair} {
			ts, err := NewTwigStack(root, ix)
			if err != nil {
				t.Logf("NewTwigStack: %v", err)
				return false
			}
			ts.Keep = keep
			ts.Stats = obs.NewOpStats("TwigStack", query)
			got, err := ts.Run()
			if err != nil {
				t.Logf("Run: %v", err)
				return false
			}
			if want := bruteTwig(doc, root, keep); !sameRows(got, want) {
				t.Logf("TS %s keeping %d vertices: %d rows vs %d (seed %d)", query, len(keep), len(got), len(want), seed)
				return false
			}
			total := 0
			for _, v := range ts.vertices {
				s := ts.stream(v)
				total += s.Len()
			}
			if got := ts.Stats.Scanned(); got != int64(total) {
				t.Logf("TS %s scanned %d, want the streams' total %d (seed %d)", query, got, total, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTwigStackUnsupported(t *testing.T) {
	doc := parse(t, sampleDoc)
	ix := index.Build(doc)
	for _, query := range []string{`//a/following-sibling::b//c`, `//a[2]//b`} {
		_, root := twigRoot(t, query)
		if _, err := NewTwigStack(root, ix); err == nil {
			t.Errorf("NewTwigStack(%s) should fail", query)
		}
	}
}

func TestTwigStackValueConstraint(t *testing.T) {
	doc := parse(t, `<r><a><b>x</b></a><a><b>y</b></a></r>`)
	ix := index.Build(doc)
	q, root := twigRoot(t, `//a[//b="x"]`)
	if rows, _ := runTwig(t, root, ix, q.Vars["result"]); len(rows) != 1 {
		t.Errorf("value-constrained twig = %d matches", len(rows))
	}
}

func TestCrossingFilter(t *testing.T) {
	doc := parse(t, `<r><a>1</a><b>1</b><b>2</b></r>`)
	q, err := core.FromPath(xpath.MustParse(`//a`))
	if err != nil {
		t.Fatal(err)
	}
	// Build single-slot instances by hand around the a node, then filter
	// on a self-crossing (slot compared to itself, trivially equal).
	a := xmltree.Descendants(doc.DocumentElement(), "a")[0]
	l := nestedlist.NewInstance(q.Return)
	l.Root.Groups[0] = []*nestedlist.Item{nestedlist.NewItem(a, 0)}
	l.SetFilled(1)

	eq := &core.Crossing{Kind: core.CrossValue, Op: xpath.OpEq}
	f := &CrossingFilter{Input: NewSliceOperator([]*nestedlist.List{l}), Crossing: eq, FromSlot: 1, ToSlot: 1}
	if got := Drain(f); len(got) != 1 {
		t.Errorf("self-equality filter dropped the instance")
	}
	ne := &core.Crossing{Kind: core.CrossValue, Op: xpath.OpEq, Negate: true}
	f = &CrossingFilter{Input: NewSliceOperator([]*nestedlist.List{l}), Crossing: ne, FromSlot: 1, ToSlot: 1}
	if got := Drain(f); len(got) != 0 {
		t.Errorf("negated self-equality kept the instance")
	}
}

func TestPositionFilter(t *testing.T) {
	doc := parse(t, `<r><a/><a/><a/></r>`)
	p := buildSingle(t, doc, `//a`)
	f := &PositionFilter{Input: p.op, Slot: p.slot, Pos: 2}
	out := Drain(f)
	if len(out) != 1 {
		t.Fatalf("position filter kept %d", len(out))
	}
	as := xmltree.Descendants(doc.DocumentElement(), "a")
	if got := out[0].ProjectSlot(p.slot); len(got) != 1 || got[0] != as[1] {
		t.Errorf("position filter selected %v, want second a", got)
	}
}

type singleParts struct {
	op   Operator
	slot int
}

func buildSingle(t *testing.T, doc *xmltree.Document, query string) singleParts {
	t.Helper()
	q, err := core.FromPath(xpath.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nok.NewMatcher(d.NoKs[1], q.Return)
	if err != nil {
		t.Fatal(err)
	}
	rn, _ := q.Return.ByVar("result")
	return singleParts{op: nok.NewIterator(m, doc), slot: rn.Slot}
}

func TestDrainAndSliceOperator(t *testing.T) {
	s := NewSliceOperator(nil)
	if s.GetNext() != nil {
		t.Error("empty slice operator should yield nil")
	}
	doc := parse(t, `<r><a/><a/></r>`)
	p := buildSingle(t, doc, `//a`)
	ls := Drain(p.op)
	if len(ls) != 2 {
		t.Fatalf("drained %d", len(ls))
	}
	s = NewSliceOperator(ls)
	if got := len(Drain(s)); got != 2 {
		t.Errorf("replay = %d", got)
	}
}

func TestPipelinedOptionalLink(t *testing.T) {
	// let $x := $b//isbn — an optional //-link: books without isbn
	// survive with an empty region.
	doc := parse(t, `<r><b><x><isbn>1</isbn></x></b><b/><b><isbn>2</isbn></b></r>`)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $b in doc("d")//b let $i := $b//isbn return $b`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	var link core.Link
	for _, l := range d.Links {
		if !l.IsScan() {
			link = l
		}
	}
	if link.Mode != core.Optional {
		t.Fatalf("link mode = %v, want optional", link.Mode)
	}
	mOuter, _ := nok.NewMatcher(d.NoKs[1], q.Return)
	mInner, _ := nok.NewMatcher(link.Child, q.Return)
	outerSlot, _ := q.Return.ByVertex(link.Parent)
	innerSlot, _ := q.Return.ByVertex(link.Child.Root)

	j := &PipelinedDescJoin{
		Outer: nok.NewIterator(mOuter, doc), Inner: nok.NewIterator(mInner, doc),
		OuterSlot: outerSlot.Slot, InnerSlot: innerSlot.Slot,
		PerPair: false, Optional: true,
	}
	ls := Drain(j)
	if j.Err != nil {
		t.Fatal(j.Err)
	}
	if len(ls) != 3 {
		t.Fatalf("optional PL kept %d instances, want all 3 books", len(ls))
	}
	iSlot, _ := q.Return.ByVar("i")
	counts := map[int]int{}
	for _, l := range ls {
		counts[len(l.ProjectSlot(iSlot.Slot))]++
	}
	if counts[0] != 1 || counts[1] != 2 {
		t.Errorf("isbn group sizes = %v, want one empty, two singletons", counts)
	}

	// Same semantics through the bounded join.
	j2 := &BoundedNLJoin{
		Outer: nok.NewIterator(mOuter, doc), OuterSlot: outerSlot.Slot,
		Inner: mInner, InnerSlot: innerSlot.Slot,
		PerPair: false, Optional: true,
	}
	ls2 := Drain(j2)
	if j2.Err != nil {
		t.Fatal(j2.Err)
	}
	if len(ls2) != 3 {
		t.Errorf("optional BNLJ kept %d instances, want 3", len(ls2))
	}
}

func TestCrossingPredicateDirect(t *testing.T) {
	doc := parse(t, `<r><x><v>1</v></x><y><v>1</v></y></r>`)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $a in doc("d")//x, $b in doc("d")//y where $a/v = $b/v return $b`))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := core.Decompose(q.Tree)
	var mx, my *nok.Matcher
	for _, n := range d.NoKs {
		if n.Root.Test == "x" {
			mx, _ = nok.NewMatcher(n, q.Return)
		}
		if n.Root.Test == "y" {
			my, _ = nok.NewMatcher(n, q.Return)
		}
	}
	c := q.Tree.Crossings[0]
	fromRN, _ := q.Return.ByVertex(c.From)
	toRN, _ := q.Return.ByVertex(c.To)
	pred := CrossingPredicate(c, fromRN.Slot, toRN.Slot)
	lx := Drain(nok.NewIterator(mx, doc))
	ly := Drain(nok.NewIterator(my, doc))
	ok, err := pred(lx[0], ly[0])
	if err != nil || !ok {
		t.Errorf("predicate = %v, %v, want true", ok, err)
	}
}

// canceledGov returns a governor over an already-canceled context with
// the violation made sticky, as the plan's entry check leaves it.
func canceledGov(t *testing.T) *gov.Governor {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gov.New(ctx, gov.Budget{}, nil)
	if err := g.CheckNow(); !errors.Is(err, gov.ErrCanceled) {
		t.Fatalf("CheckNow on canceled ctx = %v", err)
	}
	return g
}

func TestNestedLoopCanceled(t *testing.T) {
	doc := parse(t, sampleDoc)
	p := buildTwoNoK(t, doc, `//a//b`)
	j := &NestedLoopJoin{
		Outer: p.outerIt, Inner: p.innerIt,
		Pred: descPredicate(p.outerSlot, p.innerSlot),
		Gov:  canceledGov(t),
	}
	if got := Drain(j); len(got) != 0 {
		t.Errorf("canceled NLJ produced %d", len(got))
	}
	if !errors.Is(j.Err, gov.ErrCanceled) {
		t.Errorf("canceled NLJ Err = %v, want ErrCanceled", j.Err)
	}
}

func TestTwigStackCanceled(t *testing.T) {
	doc := parse(t, sampleDoc)
	ix := index.Build(doc)
	q, root := twigRoot(t, `//a//b`)
	ts, err := NewTwigStack(root, ix)
	if err != nil {
		t.Fatal(err)
	}
	ts.Keep = []*core.Vertex{q.Vars["result"]}
	ts.Gov = canceledGov(t)
	if _, err := ts.Run(); !errors.Is(err, gov.ErrCanceled) {
		t.Errorf("canceled twig run = %v, want ErrCanceled", err)
	}
}

func TestTwigStackKeepReduces(t *testing.T) {
	// //a[//b][//c] with Keep = result vertex only: matches collapse to
	// distinct a bindings regardless of witness multiplicity.
	doc := parse(t, `<r><a><b/><b/><b/><c/><c/></a></r>`)
	ix := index.Build(doc)
	q, root := twigRoot(t, `//a[//b][//c]`)
	all := []*core.Vertex{root, root.Children[0], root.Children[1]}
	if full, _ := runTwig(t, root, ix, all...); len(full) != 6 { // 3 b's × 2 c's
		t.Errorf("full enumeration = %d, want 6", len(full))
	}
	reduced, _ := runTwig(t, root, ix, q.Vars["result"])
	if len(reduced) != 1 {
		t.Errorf("reduced matches = %d, want 1", len(reduced))
	}
}

// TestTwigStackKeepsDocumentRoot: a kept document-root vertex, the
// twig's anchor, binds the document node in every row.
func TestTwigStackKeepsDocumentRoot(t *testing.T) {
	doc := parse(t, `<r><a><b/><a><b/><c/></a><c/></a><a><c/></a><b><a><b><c/></b></a></b></r>`)
	ix := index.Build(doc)
	q, root := twigRoot(t, `//a`)
	rows, _ := runTwig(t, root, ix, q.Tree.Roots[0], root)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want one per a (4)", len(rows))
	}
	for _, row := range rows {
		if row[0] != doc.Root {
			t.Errorf("document column bound to %v, want the document node", row[0])
		}
	}
	if only, _ := runTwig(t, root, ix, q.Tree.Roots[0]); len(only) != 1 || only[0][0] != doc.Root {
		t.Errorf("document root alone = %v, want one row binding the document node", only)
	}
}

// TestTwigStackSkipsWhatCannotMatch: on //part[bolt]//subpart over parts
// of which one in ten carries a bolt, only the bolted parts, their bolts
// and their subparts are pushed. A part without a bolt ends before the
// bolt stream's head (rule 2), a nested part too, and the subparts of a
// part never pushed are jumped over (rule 1). Without the skips the pass
// pushed every part and every subpart. The streams are still read to
// their end.
func TestTwigStackSkipsWhatCannotMatch(t *testing.T) {
	const parts, every = 100, 10
	var sb strings.Builder
	sb.WriteString("<assembly>")
	for i := 0; i < parts; i++ {
		sb.WriteString("<part>")
		if i%every == 0 {
			sb.WriteString("<bolt/>")
		}
		sb.WriteString(strings.Repeat("<subpart/>", 12) + "<part><subpart/></part></part>")
	}
	sb.WriteString("</assembly>")
	doc := parse(t, sb.String())
	ix := index.Build(doc)
	q, root := twigRoot(t, `//part[bolt]//subpart`)
	ts, err := NewTwigStack(root, ix)
	if err != nil {
		t.Fatal(err)
	}
	ts.Keep = []*core.Vertex{q.Vars["result"]}
	ts.Stats = obs.NewOpStats("TwigStack", "skewed")
	rows, err := ts.Run()
	if err != nil {
		t.Fatal(err)
	}
	bolted := parts / every
	if len(rows) != 13*bolted {
		t.Errorf("%d rows, want the %d subparts of bolted parts", len(rows), 13*bolted)
	}
	if want := bolted + bolted + 13*bolted; ts.PushCount != want {
		t.Errorf("pushed %d, want %d (bolted parts, bolts, their subparts); without skips %d",
			ts.PushCount, want, 2*parts+bolted+13*parts)
	}
	if got, want := ts.Stats.Scanned(), int64(2*parts+bolted+13*parts); got != want {
		t.Errorf("scanned %d, want the streams' total %d", got, want)
	}
}

// TestTwigStackScansEachStreamOnce: the one pass reads every vertex's
// stream exactly once, so scanned equals the streams' total.
func TestTwigStackScansEachStreamOnce(t *testing.T) {
	doc := xmlgen.MustGenerate("d1", xmlgen.Config{Seed: 5, TargetNodes: 1500})
	ix := index.Build(doc)
	for _, query := range []string{`//a[//b2][//b1]//b3`, `//b1//c2[//c3]//b1`, `//a//c2/b1/c2/b1//c3`} {
		q, root := twigRoot(t, query)
		ts, err := NewTwigStack(root, ix)
		if err != nil {
			t.Fatal(err)
		}
		ts.Keep = []*core.Vertex{q.Vars["result"]}
		ts.Stats = obs.NewOpStats("TwigStack", query)
		if _, err := ts.Run(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, v := range ts.vertices {
			total += ix.Count(v.Test)
		}
		if got := ts.Stats.Scanned(); got != int64(total) {
			t.Errorf("%s scanned %d, want the streams' total %d", query, got, total)
		}
	}
}
