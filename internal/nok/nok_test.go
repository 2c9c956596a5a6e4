package nok

import (
	"fmt"
	"math/rand"
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

// scanProject runs a sequential scan and projects the "result" variable
// across all instances.
func scanProject(t *testing.T, cq *core.Query, m *Matcher, doc *xmltree.Document) []*xmltree.Node {
	t.Helper()
	rn, ok := cq.Return.ByVar("result")
	if !ok {
		t.Fatal("no result slot")
	}
	var out []*xmltree.Node
	seen := map[*xmltree.Node]bool{}
	for _, l := range Scan(m, doc) {
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
	want, err := naveval.EvalPath(doc, xpath.MustParse(q))
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
	ls := Scan(m, doc)
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
	if got := len(Scan(m, doc)); got != 2 {
		t.Errorf("instances = %d, want 2 (books with authors)", got)
	}
}

func TestExpandForBound(t *testing.T) {
	doc := parse(t, `<r><b><t>1</t><t>2</t></b><b><t>3</t></b></r>`)
	// //b/t: instance per b anchor, then expanded per t (for-bound result).
	cq, m := singleNoKMatcher(t, `//b/t`)
	ls := Scan(m, doc)
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

func TestSubtreeIterator(t *testing.T) {
	doc := parse(t, `<r><x><a><b/></a></x><y><a><b/></a><a/></y></r>`)
	cq, m := singleNoKMatcher(t, `//a[b]`)
	root := doc.DocumentElement()
	y := xmltree.Children(root, "y")[0]
	it := NewSubtreeIterator(m, y)
	var got []*xmltree.Node
	rn, _ := cq.Return.ByVar("result")
	for l := it.GetNext(); l != nil; l = it.GetNext() {
		got = append(got, l.ProjectSlot(rn.Slot)...)
	}
	if len(got) != 1 {
		t.Fatalf("bounded scan found %d, want 1 (only the a under y)", len(got))
	}
	if !y.IsAncestorOf(got[0]) {
		t.Error("bounded scan escaped its subtree")
	}
	if it.ScannedNodes >= doc.NodeCount() {
		t.Errorf("bounded scan visited %d nodes of %d", it.ScannedNodes, doc.NodeCount())
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
	it := NewTagIterator(m, index.Build(doc))
	var got []*xmltree.Node
	rn, _ := cq.Return.ByVar("result")
	for l := it.GetNext(); l != nil; l = it.GetNext() {
		got = append(got, l.ProjectSlot(rn.Slot)...)
	}
	want, _ := naveval.EvalPath(doc, xpath.MustParse(`//book[author]/title`))
	if len(got) != len(want) {
		t.Fatalf("index scan = %d, oracle = %d", len(got), len(want))
	}
	if it.ScannedNodes != len(books) {
		t.Errorf("index scan visited %d anchors, want %d", it.ScannedNodes, len(books))
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
	it := NewTagIterator(m, ix)
	it.Stats = obs.NewOpStats("NoKScan", "book")
	rn, _ := cq.Return.ByVar("result")

	it.SkipTo(books[2].Start)
	if it.ScannedNodes != 2 || it.Stats.Scanned() != 2 || it.Stats.Skipped() != 2 {
		t.Fatalf("after skipping two books: scanned %d/%d, skipped %d; want 2/2, 2",
			it.ScannedNodes, it.Stats.Scanned(), it.Stats.Skipped())
	}
	it.SkipTo(books[0].Start) // backwards: ignored
	l := it.GetNext()
	if l == nil || l.FirstNode(rn.Slot).Parent != books[2] {
		t.Fatalf("GetNext after SkipTo = %v, want the third book's title", l)
	}
	it.SkipTo(books[3].End + 1) // past the end
	if it.GetNext() != nil || it.ScannedNodes != len(books) || it.Stats.Skipped() != 3 {
		t.Errorf("after skipping to the end: scanned %d, skipped %d; want %d, 3",
			it.ScannedNodes, it.Stats.Skipped(), len(books))
	}

	it = NewTagIterator(m, ix)
	at := 0
	if allocs := testing.AllocsPerRun(len(books), func() {
		it.SkipTo(books[at%len(books)].Start + 1)
		at++
	}); allocs != 0 {
		t.Errorf("SkipTo allocated %.0f times per call, want 0", allocs)
	}
}

// TestIteratorSkipToNoOps: a preorder scan has no sorted candidate list
// to search, and instances already expanded from an earlier anchor are
// not dropped.
func TestIteratorSkipToNoOps(t *testing.T) {
	doc := parse(t, `<r><b><t>1</t><t>2</t></b><b><t>3</t></b></r>`)
	_, m := singleNoKMatcher(t, `//b/t`)

	seq := NewIterator(m, doc)
	seq.SkipTo(1 << 30)
	if seq.ScannedNodes != 0 || len(seq.Drain()) != 3 {
		t.Error("SkipTo moved a sequential scan")
	}

	ix := NewTagIterator(m, index.Build(doc))
	if ix.GetNext() == nil {
		t.Fatal("no first instance")
	}
	ix.SkipTo(1 << 30) // the first b's second t is still queued
	if ix.ScannedNodes != 1 || len(ix.Drain()) != 2 {
		t.Error("SkipTo dropped queued instances or moved past them")
	}
}

func TestMultiScanMatchesIndividualScans(t *testing.T) {
	doc := parse(t, bib)
	_, m1 := singleNoKMatcher(t, `//book[author]`)
	_, m2 := singleNoKMatcher(t, `//title`)
	st := obs.NewOpStats("NoKScan", "merged")
	merged, err := MultiScan([]*Matcher{m1, m2}, doc, nil, st)
	if err != nil || len(merged) != 2 {
		t.Fatalf("MultiScan shape wrong (err %v)", err)
	}
	if got, want := st.Scanned(), int64(xmltree.ComputeStats(doc).Elements); got != want {
		t.Errorf("merged scan charged %d nodes, want one per element (%d)", got, want)
	}
	if got, want := len(merged[0]), len(Scan(m1, doc)); got != want {
		t.Errorf("NoK1 via MultiScan = %d, solo = %d", got, want)
	}
	if got, want := len(merged[1]), len(Scan(m2, doc)); got != want {
		t.Errorf("NoK2 via MultiScan = %d, solo = %d", got, want)
	}
}

func TestMultiScanDocRootNoK(t *testing.T) {
	doc := parse(t, bib)
	_, m := singleNoKMatcher(t, `/bib/book`)
	merged, err := MultiScan([]*Matcher{m}, doc, nil, nil)
	if err != nil || len(merged[0]) != 4 {
		t.Errorf("doc-root NoK via MultiScan = %d instances, want 4", len(merged[0]))
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
	ls := Scan(m, doc)
	// Anchors: outer a (1 b child), inner a (2 b children); expansion per
	// for-bound b → 3 instances.
	if len(ls) != 3 {
		t.Fatalf("instances = %d, want 3", len(ls))
	}
	got := scanProject(t, cq, m, doc)
	want, _ := naveval.EvalPath(doc, xpath.MustParse(`//a/b`))
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
		for _, l := range Scan(m, doc) {
			for _, n := range l.ProjectSlot(rn.Slot) {
				if !seen[n] {
					seen[n] = true
					got = append(got, n)
				}
			}
		}
		want, err := naveval.EvalPath(doc, xpath.MustParse(q))
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
		for _, l := range Scan(m, doc) {
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
	if got := Scan(m, doc); len(got) != 0 {
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
	ls := Scan(mb, doc)
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
	ls := Scan(m, doc)
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
// instances GetNext would build, in the same order, and charges exactly
// what GetNext charges — candidates scanned, match attempts compared,
// witnesses emitted — over a preorder and an index-anchored scan alike.
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
		drain := func(indexed, witnesses bool) run {
			it := NewIterator(m, doc)
			if indexed {
				it = NewTagIterator(m, ix)
			}
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
		for _, indexed := range []bool{false, true} {
			want, got := drain(indexed, false), drain(indexed, true)
			if len(want.nodes) == 0 {
				t.Fatalf("%s: fixture matches nothing", q)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s (indexed=%v): witnesses %+v, GetNext %+v", q, indexed, got, want)
			}
		}
	}
}

// TestTagIteratorAgreesWithSequential: on random documents, a scan of
// the root tag's postings, which tests no candidate's tag, delivers the
// instances a sequential scan delivers and makes the same match
// attempts. It scans exactly the postings, and charges what an iterator
// testing every posting charges.
func TestTagIteratorAgreesWithSequential(t *testing.T) {
	queries := []string{`//a/b`, `//b[c]/a`, `//a[b][c]`, `//c[a/b]`, `//b[a="x"]`}
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
			rn, _ := cq.Return.ByVertex(m.NoK.Root)
			drain := func(it *Iterator) run {
				it.Stats = obs.NewOpStats("NoKScan", q)
				var r run
				for l := it.GetNext(); l != nil; l = it.GetNext() {
					r.nodes = append(r.nodes, l.FirstNode(rn.Slot))
				}
				if int64(it.ScannedNodes) != it.Stats.Scanned() {
					t.Fatalf("%s: ScannedNodes %d, stats %d", q, it.ScannedNodes, it.Stats.Scanned())
				}
				r.scanned, r.cmp = it.Stats.Scanned(), it.Stats.Comparisons()
				return r
			}
			tagged := drain(NewTagIterator(m, ix))
			seq := drain(NewIterator(m, doc))
			tested := drain(&Iterator{m: m, postings: index.NewStream(ix.Nodes(m.RootTest()))})
			if fmt.Sprint(tagged.nodes) != fmt.Sprint(seq.nodes) || tagged.cmp != seq.cmp {
				t.Errorf("%s (seed %d): tag scan %d instances, %d attempts; sequential %d, %d",
					q, seed, len(tagged.nodes), tagged.cmp, len(seq.nodes), seq.cmp)
			}
			if tagged.scanned != int64(ix.Count(m.RootTest())) || fmt.Sprint(tagged) != fmt.Sprint(tested) {
				t.Errorf("%s (seed %d): tag scan %+v, tested scan %+v, %d postings",
					q, seed, tagged, tested, ix.Count(m.RootTest()))
			}
		}
	}
}
