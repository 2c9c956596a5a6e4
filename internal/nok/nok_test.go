package nok

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"blossomtree/internal/core"
	"blossomtree/internal/fault"
	"blossomtree/internal/flwor"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/naveval"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

const bib = `<bib>
  <book><title>Maximum Security</title><price>39</price></book>
  <book><title>The Art of Computer Programming</title>
    <author><last>Knuth</last><first>Donald</first></author><price>120</price></book>
  <book><title>Terrorist Hunter</title><price>25</price></book>
  <book><title>TeX Book</title>
    <author><last>Knuth</last><first>Donald</first></author><price>30</price></book>
</bib>`

func parse(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// singleNoKMatcher compiles a path query and returns the matcher of its
// single non-root NoK (the query must decompose into root + one NoK).
func singleNoKMatcher(t *testing.T, q string) (*core.Query, *Matcher) {
	t.Helper()
	cq, err := core.FromPath(xpath.MustParse(q))
	if err != nil {
		t.Fatalf("FromPath(%s): %v", q, err)
	}
	d, err := core.Decompose(cq.Tree)
	if err != nil {
		t.Fatal(err)
	}
	var target *core.NoK
	for _, n := range d.NoKs {
		if !n.Root.IsDocRoot() {
			if target != nil {
				t.Fatalf("query %s has more than one non-root NoK:\n%s", q, d)
			}
			target = n
		} else if n.Size() > 1 {
			target = n
		}
	}
	if target == nil {
		t.Fatalf("no NoK for %s", q)
	}
	m, err := NewMatcher(target, cq.Return)
	if err != nil {
		t.Fatal(err)
	}
	return cq, m
}

// scan runs the matcher's NoK scan over the document: every posting of
// its root's tag test, the scan the plan layer builds.
func scan(m *Matcher, doc *xmltree.Document) []*nestedlist.List {
	return drain(NewIterator(m, index.Build(doc).Stream(m.RootTest())))
}

// drain collects an iterator's remaining instances.
func drain(it *Iterator) []*nestedlist.List {
	var out []*nestedlist.List
	for l := it.GetNext(); l != nil; l = it.GetNext() {
		out = append(out, l)
	}
	return out
}

// scanProject runs a NoK scan and projects the "result" variable across
// all instances.
func scanProject(t *testing.T, cq *core.Query, m *Matcher, doc *xmltree.Document) []*xmltree.Node {
	t.Helper()
	rn, ok := cq.Return.ByVar("result")
	if !ok {
		t.Fatal("no result slot")
	}
	var out []*xmltree.Node
	seen := map[*xmltree.Node]bool{}
	for _, l := range scan(m, doc) {
		for _, n := range l.ProjectSlot(rn.Slot) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// checkAgainstNaveval compares the NoK evaluation of a single-NoK path
// query with the navigational oracle.
func checkAgainstNaveval(t *testing.T, doc *xmltree.Document, q string) {
	t.Helper()
	cq, m := singleNoKMatcher(t, q)
	got := scanProject(t, cq, m, doc)
	want, err := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: NoK found %d nodes, oracle %d", q, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d differs: %v vs %v", q, i, got[i], want[i])
		}
	}
}

func TestMatchSimpleChains(t *testing.T) {
	doc := parse(t, bib)
	queries := []string{
		`//book`,
		`//book/title`,
		`//book[author]/title`,
		`//book[author/last="Knuth"]/title`,
		`//book[price<35]/title`,
		`//book[author][price<35]`,
		`//author/last`,
		`//book/author/first`,
		`//missing`,
		`//book[price="39"]`,
		`/bib/book/title`,
		`/bib/*/price`,
	}
	for _, q := range queries {
		t.Run(q, func(t *testing.T) { checkAgainstNaveval(t, doc, q) })
	}
}

func TestMatchFollowingSibling(t *testing.T) {
	doc := parse(t, `<r><a/><b/><a/><c/><b/></r>`)
	checkAgainstNaveval(t, doc, `//a/following-sibling::b`)
}

func TestMatchDocRootNoK(t *testing.T) {
	doc := parse(t, bib)
	checkAgainstNaveval(t, doc, `/bib/book/author`)
}

func TestOptionalEdgesKeepEmptyGroups(t *testing.T) {
	doc := parse(t, bib)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $b in doc("d")//book let $a := $b/author return $b`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher(d.NoKs[1], q.Return)
	if err != nil {
		t.Fatal(err)
	}
	ls := scan(m, doc)
	if len(ls) != 4 {
		t.Fatalf("instances = %d, want 4 (every book, authors optional)", len(ls))
	}
	aSlot, _ := q.Return.ByVar("a")
	counts := []int{0, 1, 0, 1}
	for i, l := range ls {
		if got := len(l.ProjectSlot(aSlot.Slot)); got != counts[i] {
			t.Errorf("instance %d: authors = %d, want %d", i, got, counts[i])
		}
	}
}

func TestMandatoryEdgeFiltersAnchors(t *testing.T) {
	doc := parse(t, bib)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $b in doc("d")//book where exists($b/author) return $b`))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := core.Decompose(q.Tree)
	m, err := NewMatcher(d.NoKs[1], q.Return)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scan(m, doc)); got != 2 {
		t.Errorf("instances = %d, want 2 (books with authors)", got)
	}
}

func TestExpandForBound(t *testing.T) {
	doc := parse(t, `<r><b><t>1</t><t>2</t></b><b><t>3</t></b></r>`)
	// //b/t: instance per b anchor, then expanded per t (for-bound result).
	cq, m := singleNoKMatcher(t, `//b/t`)
	ls := scan(m, doc)
	if len(ls) != 3 {
		t.Fatalf("instances = %d, want 3 (t matches enumerate)", len(ls))
	}
	rn, _ := cq.Return.ByVar("result")
	for _, l := range ls {
		if len(l.ProjectSlot(rn.Slot)) != 1 {
			t.Error("expanded instance must hold exactly one result node")
		}
	}
}

// TestRegionIterator: the inner scan of the bounded nested-loop join,
// re-seated on an outer node's region, reads only the root tag's
// postings inside it and matches there what the navigational evaluator
// finds below it — also after reading past it, and when re-seated again
// on an earlier region.
func TestRegionIterator(t *testing.T) {
	doc := parse(t, `<r><x><a><b/></a></x><y><a><b/></a><a/></y><a><b/></a></r>`)
	cq, m := singleNoKMatcher(t, `//a[b]`)
	rn, _ := cq.Return.ByVar("result")
	all := index.Build(doc).Stream(m.RootTest())
	it := NewIterator(m, all)
	drain(it)
	for _, tag := range []string{"y", "x", "y"} {
		n := xmltree.Children(doc.DocumentElement(), tag)[0]
		it.Stats = obs.NewOpStats("NoKScan", "a")
		it.Reseat(n.Start, n.End)
		var got []*xmltree.Node
		for _, l := range drain(it) {
			got = append(got, l.ProjectSlot(rn.Slot)...)
		}
		want, err := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(`/r/`+tag+`//a[b]`), nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("scan re-seated on %s found %v, navigational %v", tag, got, want)
		}
		if as := xmltree.Descendants(n, "a"); it.Stats.Scanned() != int64(len(as)) {
			t.Errorf("scan re-seated on %s read %d postings, want the %d a's under it", tag, it.Stats.Scanned(), len(as))
		}
	}
	if all.Len() != 4 {
		t.Errorf("re-seating the scan moved the caller's stream: %d postings left, want 4", all.Len())
	}
	y := xmltree.Children(doc.DocumentElement(), "y")[0]
	if n := testing.AllocsPerRun(10, func() { it.Reseat(y.Start, y.End) }); n != 0 {
		t.Errorf("Reseat allocated %v times, want 0", n)
	}
}

func TestIndexIterator(t *testing.T) {
	doc := parse(t, bib)
	cq, m := singleNoKMatcher(t, `//book[author]/title`)
	var books []*xmltree.Node
	xmltree.Elements(doc.Root, func(n *xmltree.Node) {
		if n.Tag == "book" {
			books = append(books, n)
		}
	})
	it := NewIterator(m, index.Build(doc).Stream(m.RootTest()))
	it.Stats = obs.NewOpStats("NoKScan", "book")
	var got []*xmltree.Node
	rn, _ := cq.Return.ByVar("result")
	for l := it.GetNext(); l != nil; l = it.GetNext() {
		got = append(got, l.ProjectSlot(rn.Slot)...)
	}
	want, _ := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(`//book[author]/title`), nil)
	if len(got) != len(want) {
		t.Fatalf("index scan = %d, oracle = %d", len(got), len(want))
	}
	if it.Stats.Scanned() != int64(len(books)) {
		t.Errorf("index scan visited %d anchors, want %d", it.Stats.Scanned(), len(books))
	}
}

// TestIteratorSkipTo pins the SkipTo contract of the index-anchored
// scan: candidates before the target are dropped unmatched but charged
// as scanned (and counted as skipped), the cursor never moves backwards,
// and the call costs no allocation.
func TestIteratorSkipTo(t *testing.T) {
	doc := parse(t, bib)
	cq, m := singleNoKMatcher(t, `//book/title`)
	ix := index.Build(doc)
	books := ix.Nodes("book")
	it := NewIterator(m, ix.Stream(m.RootTest()))
	it.Stats = obs.NewOpStats("NoKScan", "book")
	rn, _ := cq.Return.ByVar("result")

	it.SkipTo(books[2].Start)
	if it.Stats.Scanned() != 2 || it.Stats.Skipped() != 2 {
		t.Fatalf("after skipping two books: scanned %d, skipped %d; want 2, 2",
			it.Stats.Scanned(), it.Stats.Skipped())
	}
	it.SkipTo(books[0].Start) // backwards: ignored
	l := it.GetNext()
	if l == nil || l.FirstNode(rn.Slot).Parent != books[2] {
		t.Fatalf("GetNext after SkipTo = %v, want the third book's title", l)
	}
	it.SkipTo(books[3].End + 1) // past the end
	if it.GetNext() != nil || it.Stats.Scanned() != int64(len(books)) || it.Stats.Skipped() != 3 {
		t.Errorf("after skipping to the end: scanned %d, skipped %d; want %d, 3",
			it.Stats.Scanned(), it.Stats.Skipped(), len(books))
	}

	it = NewIterator(m, ix.Stream(m.RootTest()))
	at := 0
	if allocs := testing.AllocsPerRun(len(books), func() {
		it.SkipTo(books[at%len(books)].Start + 1)
		at++
	}); allocs != 0 {
		t.Errorf("SkipTo allocated %.0f times per call, want 0", allocs)
	}
}

// TestIteratorSkipToNoOps: instances already expanded from an earlier
// anchor are not dropped.
func TestIteratorSkipToNoOps(t *testing.T) {
	doc := parse(t, `<r><b><t>1</t><t>2</t></b><b><t>3</t></b></r>`)
	_, m := singleNoKMatcher(t, `//b/t`)

	it := NewIterator(m, index.Build(doc).Stream(m.RootTest()))
	it.Stats = obs.NewOpStats("NoKScan", "b")
	if it.GetNext() == nil {
		t.Fatal("no first instance")
	}
	it.SkipTo(1 << 30) // the first b's second t is still queued
	if it.Stats.Scanned() != 1 || len(drain(it)) != 2 {
		t.Error("SkipTo dropped queued instances or moved past them")
	}
}

func TestRootTest(t *testing.T) {
	_, m := singleNoKMatcher(t, `//book/title`)
	if m.RootTest() != "book" {
		t.Errorf("RootTest = %q", m.RootTest())
	}
}

func TestRecursiveDocumentGrouping(t *testing.T) {
	// Recursive document: a's nested within a's; each anchor produces its
	// own instance, with matches grouped under the right anchor.
	doc := parse(t, `<r><a><b/><a><b/><b/></a></a></r>`)
	cq, m := singleNoKMatcher(t, `//a/b`)
	ls := scan(m, doc)
	// Anchors: outer a (1 b child), inner a (2 b children); expansion per
	// for-bound b → 3 instances.
	if len(ls) != 3 {
		t.Fatalf("instances = %d, want 3", len(ls))
	}
	got := scanProject(t, cq, m, doc)
	want, _ := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(`//a/b`), nil)
	if len(got) != len(want) {
		t.Errorf("recursive doc: got %d, want %d", len(got), len(want))
	}
}

// TestQuickNoKEqualsOracle cross-checks the NoK matcher against the
// navigational oracle on random documents × random single-NoK queries.
func TestQuickNoKEqualsOracle(t *testing.T) {
	tags := []string{"a", "b", "c", "d"}
	genQuery := func(r *rand.Rand) string {
		// Random local-axis-only path: //t0[p?]/t1[p?]/…
		depth := 1 + r.Intn(3)
		q := "//" + tags[r.Intn(len(tags))]
		for i := 0; i < depth; i++ {
			if r.Intn(3) == 0 {
				q += fmt.Sprintf("[%s]", tags[r.Intn(len(tags))])
			}
			if r.Intn(2) == 0 {
				q += "/" + tags[r.Intn(len(tags))]
			}
		}
		return q
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: tags, MaxNodes: 60, MaxDepth: 7})
		q := genQuery(r)
		cq, err := core.FromPath(xpath.MustParse(q))
		if err != nil {
			t.Logf("FromPath(%s): %v", q, err)
			return false
		}
		d, err := core.Decompose(cq.Tree)
		if err != nil || len(d.NoKs) != 2 {
			return true // not single-NoK; skip
		}
		m, err := NewMatcher(d.NoKs[1], cq.Return)
		if err != nil {
			t.Logf("NewMatcher: %v", err)
			return false
		}
		rn, _ := cq.Return.ByVar("result")
		var got []*xmltree.Node
		seen := map[*xmltree.Node]bool{}
		for _, l := range scan(m, doc) {
			for _, n := range l.ProjectSlot(rn.Slot) {
				if !seen[n] {
					seen[n] = true
					got = append(got, n)
				}
			}
		}
		want, err := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(q), nil)
		if err != nil {
			t.Logf("oracle: %v", err)
			return false
		}
		if len(got) != len(want) {
			t.Logf("query %s: NoK %d vs oracle %d\ndoc: %s", q, len(got), len(want),
				xmltree.Serialize(doc.Root, xmltree.WriteOptions{}))
			return false
		}
		// On recursive documents instance concatenation is not document-
		// ordered (the Theorem 2 caveat), so compare as sets there and as
		// ordered sequences otherwise.
		if xmltree.ComputeStats(doc).Recursive {
			wantSet := map[*xmltree.Node]bool{}
			for _, n := range want {
				wantSet[n] = true
			}
			for _, n := range got {
				if !wantSet[n] {
					t.Logf("query %s: spurious node %v", q, n)
					return false
				}
			}
			return true
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("query %s: order mismatch at %d", q, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickTheorem1 verifies Theorem 1: for every slot of every instance
// produced by a sequential scan, the projection is in document order —
// and so is the concatenation across the instance sequence for each
// anchor group.
func TestQuickTheorem1(t *testing.T) {
	tags := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: tags, MaxNodes: 50, MaxDepth: 8})
		queries := []string{`//a/b`, `//a[b]/c`, `//b/a[c]`, `//a/b/c`}
		q := queries[r.Intn(len(queries))]
		cq, err := core.FromPath(xpath.MustParse(q))
		if err != nil {
			return false
		}
		d, err := core.Decompose(cq.Tree)
		if err != nil {
			return false
		}
		m, err := NewMatcher(d.NoKs[1], cq.Return)
		if err != nil {
			return false
		}
		for _, l := range scan(m, doc) {
			for slot := 1; slot < len(cq.Return.Nodes); slot++ {
				ns := l.ProjectSlot(slot)
				for i := 1; i < len(ns); i++ {
					if !ns[i-1].Before(ns[i]) {
						t.Logf("slot %d of %s not in document order", slot, q)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestEmptyDocumentScan(t *testing.T) {
	doc := parse(t, `<only/>`)
	_, m := singleNoKMatcher(t, `//book/title`)
	if got := scan(m, doc); len(got) != 0 {
		t.Errorf("scan of non-matching doc = %d instances", len(got))
	}
}

func TestNestedListShapeOfInstance(t *testing.T) {
	// Instances of one NoK of a multi-NoK query carry placeholder spines.
	doc := parse(t, `<r><a><b/></a></r>`)
	cq, err := core.FromPath(xpath.MustParse(`//a//b`))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := core.Decompose(cq.Tree)
	// NoKs: {~}, {a}, {b} — match the b NoK alone.
	mb, err := NewMatcher(d.NoKs[2], cq.Return)
	if err != nil {
		t.Fatal(err)
	}
	ls := scan(mb, doc)
	if len(ls) != 1 {
		t.Fatalf("instances = %d", len(ls))
	}
	l := ls[0]
	aSlot := cq.Return.Nodes[1].Slot
	bSlot := cq.Return.Nodes[2].Slot
	if l.IsFilled(aSlot) || !l.IsFilled(bSlot) {
		t.Errorf("filled = a:%v b:%v, want a placeholder, b filled", l.IsFilled(aSlot), l.IsFilled(bSlot))
	}
	if got := len(l.ProjectSlot(bSlot)); got != 1 {
		t.Errorf("π(b) = %d", got)
	}
	if got := len(l.ProjectSlot(aSlot)); got != 0 {
		t.Errorf("π(a) = %d, want 0 (placeholder)", got)
	}
	var mergeTarget *nestedlist.List
	_ = mergeTarget
}

func TestPositionConstraintInsideNoK(t *testing.T) {
	doc := parse(t, `<r><b><t>1</t><t>2</t><x/><t>3</t></b><b><t>4</t></b></r>`)
	// title[2] within the NoK: position counts among tag-matching
	// siblings.
	checkAgainstNaveval(t, doc, `//b/t[2]`)
}

func TestMultipleForBoundSlotsExpand(t *testing.T) {
	doc := parse(t, `<r><a><b/><b/></a><a><b/></a></r>`)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $x in doc("d")/r/a, $y in $x/b return $y`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NoKs) != 1 {
		t.Fatalf("expected a single doc-root NoK, got %d", len(d.NoKs))
	}
	m, err := NewMatcher(d.NoKs[0], q.Return)
	if err != nil {
		t.Fatal(err)
	}
	ls := scan(m, doc)
	// One anchor (document node), expanded per a (for) × per b (for):
	// 2 + 1 = 3 iterations.
	if len(ls) != 3 {
		t.Fatalf("instances = %d, want 3", len(ls))
	}
	xSlot, _ := q.Return.ByVar("x")
	ySlot, _ := q.Return.ByVar("y")
	for _, l := range ls {
		if len(l.ProjectSlot(xSlot.Slot)) != 1 || len(l.ProjectSlot(ySlot.Slot)) != 1 {
			t.Error("for-bound slots must be singletons after expansion")
		}
	}
}

func TestFollowingSiblingInsideNoK(t *testing.T) {
	doc := parse(t, `<r><a/><b><c/></b><a/><b/><x/><b><c/></b></r>`)
	checkAgainstNaveval(t, doc, `//a/following-sibling::b[c]`)
}

// TestIteratorNextWitness: the witness stream yields the anchors of the
// instances GetNext would build — the nodes the navigational evaluator
// selects — in the same order, and charges exactly what GetNext charges:
// candidates scanned, match attempts compared, witnesses emitted.
// Matches agrees with MatchAt on every element.
func TestIteratorNextWitness(t *testing.T) {
	doc := parse(t, bib)
	ix := index.Build(doc)
	for _, q := range []string{`//book[author/last]`, `//book[author[first]][price]`, `//author[last="Knuth"]`, `//author[*[2]]`} {
		cq, m := singleNoKMatcher(t, q)
		rn, _ := cq.Return.ByVertex(m.NoK.Root)
		xmltree.Elements(doc.Root, func(n *xmltree.Node) {
			if !m.NoK.Root.MatchesTag(n.Tag) {
				return // not a candidate
			}
			if m.Matches(n) != (m.MatchAt(n) != nil) {
				t.Errorf("%s at <%s %d>: Matches = %v, MatchAt disagrees", q, n.Tag, n.Start, m.Matches(n))
			}
		})
		type run struct {
			nodes                     []*xmltree.Node
			scanned, cmp, scans, emit int64
		}
		drain := func(witnesses bool) run {
			it := NewIterator(m, ix.Stream(m.RootTest()))
			inj := fault.New()
			it.Gov = gov.New(nil, gov.Budget{}, inj)
			it.Stats = obs.NewOpStats("NoKScan", q)
			var r run
			if witnesses {
				for n := it.NextWitness(); n != nil; n = it.NextWitness() {
					r.nodes = append(r.nodes, n)
				}
			} else {
				for l := it.GetNext(); l != nil; l = it.GetNext() {
					r.nodes = append(r.nodes, l.FirstNode(rn.Slot))
				}
			}
			r.scanned, r.cmp = it.Stats.Scanned(), it.Stats.Comparisons()
			r.scans, r.emit = inj.Hits(fault.SiteNoKScan), inj.Hits(fault.SiteNoKEmit)
			return r
		}
		want, got := drain(false), drain(true)
		oracle, err := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(q), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.nodes) == 0 || fmt.Sprint(want.nodes) != fmt.Sprint(oracle) {
			t.Fatalf("%s: GetNext anchors %v, navigational %v", q, want.nodes, oracle)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: witnesses %+v, GetNext %+v", q, got, want)
		}
	}
}

// TestIteratorAgreesWithNaveval: on random documents, a scan of the root
// test's postings, which tests no candidate's tag, finds the nodes the
// navigational evaluator selects. It scans exactly the postings,
// attempts a match on each of them, and charges what an iterator over a
// copy of the postings charges.
func TestIteratorAgreesWithNaveval(t *testing.T) {
	queries := []string{`//a/b`, `//b[c]/a`, `//a[b][c]`, `//c[a/b]`, `//b[a="x"]`, `//*[b]`, `//*[.="x"]/c`}
	type run struct {
		nodes        []*xmltree.Node
		scanned, cmp int64
	}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: []string{"a", "b", "c"}, MaxNodes: 60, MaxDepth: 8})
		ix := index.Build(doc)
		for _, q := range queries {
			cq, m := singleNoKMatcher(t, q)
			rn, _ := cq.Return.ByVar("result")
			drain := func(it *Iterator) run {
				it.Stats = obs.NewOpStats("NoKScan", q)
				var r run
				for l := it.GetNext(); l != nil; l = it.GetNext() {
					r.nodes = append(r.nodes, l.ProjectSlot(rn.Slot)...)
				}
				r.scanned, r.cmp = it.Stats.Scanned(), it.Stats.Comparisons()
				return r
			}
			got := drain(NewIterator(m, ix.Stream(m.RootTest())))
			copied := drain(NewIterator(m, index.NewStream(ix.Nodes(m.RootTest()))))
			want, err := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(q), nil)
			if err != nil {
				t.Fatal(err)
			}
			// Instances of nested anchors interleave on a recursive
			// document (the Theorem 2 caveat): compare the node sets.
			found := slices.Clone(got.nodes)
			slices.SortFunc(found, func(a, b *xmltree.Node) int { return a.Start - b.Start })
			found = slices.Compact(found)
			n := int64(ix.Count(m.RootTest()))
			if fmt.Sprint(found) != fmt.Sprint(want) || got.scanned != n || got.cmp != n {
				t.Errorf("%s (seed %d): scan %d nodes, %d scanned, %d attempts; navigational %d nodes, %d postings",
					q, seed, len(found), got.scanned, got.cmp, len(want), n)
			}
			if fmt.Sprint(got) != fmt.Sprint(copied) {
				t.Errorf("%s (seed %d): scan %+v, copied postings %+v", q, seed, got, copied)
			}
		}
	}
}

// TestValueConstrainedAnchorBuildsNothing: an anchor that fails a value
// constraint below the root is turned away before its instance is
// built, and the anchors that pass match as before.
func TestValueConstrainedAnchorBuildsNothing(t *testing.T) {
	doc := parse(t, `<r><p><t>a</t><y>1990</y><q><y>x</y></q></p><p><t>b</t><y>1999</y><q><y>y</y></q></p><p><y>2000</y></p></r>`)
	for _, q := range []string{`//p[y>=1997]/t`, `//p[y>=1997]`, `//p[t][y<1997]`, `//p[q/y="y"]/t`, `//p[q[y="x"]]/y`} {
		checkAgainstNaveval(t, doc, q)
	}
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $p in doc("d")//p where $p/y >= 1997 return <r>{ $p/t }</r>`))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := core.Decompose(q.Tree)
	m, err := NewMatcher(d.NoKs[1], q.Return)
	if err != nil {
		t.Fatal(err)
	}
	ps := xmltree.Descendants(doc.DocumentElement(), "p")
	if m.MatchAt(ps[0]) != nil || m.MatchAt(ps[1]) == nil {
		t.Fatal("the year constraint decides the match")
	}
	if n := testing.AllocsPerRun(100, func() { m.MatchAt(ps[0]) }); n != 0 {
		t.Errorf("a failing anchor allocates %v objects, want 0", n)
	}
}
