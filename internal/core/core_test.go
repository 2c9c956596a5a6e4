package core

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"blossomtree/internal/flwor"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

func TestDewey(t *testing.T) {
	d := (Dewey{1}).Child(1).Child(2)
	if d.String() != "1.1.2" || len(d) != 3 {
		t.Errorf("Child chain = %q", d.String())
	}
	base := Dewey{1, 1}
	if got := base.Child(3); got.String() != "1.1.3" || base.String() != "1.1" {
		t.Errorf("Child = %v, base = %v (Child must not alias)", got, base)
	}
	if (Dewey{}).String() != "" {
		t.Error("empty Dewey String")
	}
}

func TestFromPathSimple(t *testing.T) {
	q, err := FromPath(xpath.MustParse(`doc("d.xml")/a/b`))
	if err != nil {
		t.Fatal(err)
	}
	bt := q.Tree
	if len(bt.Roots) != 1 || !bt.Roots[0].IsDocRoot() {
		t.Fatalf("roots = %v", bt.Roots)
	}
	if len(bt.Vertices) != 3 {
		t.Fatalf("vertices = %d, want 3 (root, a, b)", len(bt.Vertices))
	}
	end, ok := q.Vars["result"]
	if !ok || end.Test != "b" || !end.Returning || !end.ForBound {
		t.Fatalf("result vertex = %+v", end)
	}
	if end.ParentRel != RelChild || end.ParentMode != Mandatory {
		t.Errorf("edge = %v %v", end.ParentRel, end.ParentMode)
	}
	if end.Dewey.String() != "1.1" {
		t.Errorf("Dewey = %v", end.Dewey)
	}
}

func TestFromPathChainDecompose(t *testing.T) {
	q, err := FromPath(xpath.MustParse(`//a//b//c`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NoKs) != 4 {
		t.Fatalf("NoKs = %d, want 4 (root, a, b, c):\n%s", len(d.NoKs), d)
	}
	if len(d.Links) != 3 {
		t.Fatalf("links = %d, want 3", len(d.Links))
	}
	scans := 0
	for _, l := range d.Links {
		if l.IsScan() {
			scans++
		}
	}
	if scans != 1 {
		t.Errorf("scan links = %d, want 1", scans)
	}
	// a and b become returning as join endpoints even though only c is
	// the query's returning node.
	for _, v := range q.Tree.Vertices {
		if v.IsDocRoot() {
			if v.Returning {
				t.Error("doc root must not be returning")
			}
			continue
		}
		if !v.Returning {
			t.Errorf("vertex %s should be returning (join endpoint)", v.Label())
		}
	}
}

func TestFromPathBranchingQuery(t *testing.T) {
	// Table 2's mb query: //a/b[//c][//d][//e]
	q, err := FromPath(xpath.MustParse(`//a/b[//c][//d][//e]`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	// NoKs: {~}, {a,b}, {c}, {d}, {e}
	if len(d.NoKs) != 5 {
		t.Fatalf("NoKs = %d, want 5:\n%s", len(d.NoKs), d)
	}
	joins := 0
	for _, l := range d.Links {
		if !l.IsScan() {
			joins++
			if l.Parent.Test != "b" {
				t.Errorf("join parent = %s, want b", l.Parent.Label())
			}
		}
	}
	if joins != 3 {
		t.Errorf("join links = %d, want 3", joins)
	}
}

func TestFromPathBarePredicateStep(t *testing.T) {
	q, err := FromPath(xpath.MustParse(`/a/b//[c/d//e]`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	// NoKs: {~,a,b}, {*,c,d}, {e}
	if len(d.NoKs) != 3 {
		t.Fatalf("NoKs = %d:\n%s", len(d.NoKs), d)
	}
	star := d.NoKs[1].Root
	if star.Test != "*" {
		t.Errorf("second NoK root = %s", star.Label())
	}
	if d.NoKs[0].Size() != 3 || d.NoKs[1].Size() != 3 || d.NoKs[2].Size() != 1 {
		t.Errorf("sizes = %d %d %d", d.NoKs[0].Size(), d.NoKs[1].Size(), d.NoKs[2].Size())
	}
}

func TestFromPathConstraints(t *testing.T) {
	// [2] leads the predicate list: a positional predicate after other
	// filters would invert the step's filter order (position counts the
	// tag matches before later filters), so that shape is outside the
	// fragment — asserted below.
	q, err := FromPath(xpath.MustParse(`//book[2][author="Knuth"][@lang="en"]/title[.!="x"]`))
	if err != nil {
		t.Fatal(err)
	}
	book, _ := vertexOfVar(q.Tree, "result")
	book = book.Parent
	if book.Test != "book" {
		t.Fatalf("parent = %s", book.Label())
	}
	if pos, ok := book.PositionConstraint(); !ok || pos != 2 {
		t.Errorf("position = %d, %v", pos, ok)
	}
	var kinds []ConstraintKind
	for _, c := range book.Constraints {
		kinds = append(kinds, c.Kind)
	}
	if len(kinds) != 2 { // position + attr (author value goes on the author child vertex)
		t.Errorf("book constraints = %v", book.Constraints)
	}
	var author *Vertex
	for _, c := range book.Children {
		if c.Test == "author" {
			author = c
		}
	}
	if author == nil || len(author.Constraints) != 1 || author.Constraints[0].Kind != CValue {
		t.Fatalf("author constraints = %+v", author)
	}
	title, _ := vertexOfVar(q.Tree, "result")
	if len(title.Constraints) != 1 || title.Constraints[0].Op != xpath.OpNeq {
		t.Errorf("title constraints = %+v", title.Constraints)
	}

	if _, err := FromPath(xpath.MustParse(`//book[author="Knuth"][2]`)); !errors.Is(err, ErrOutsideFragment) {
		t.Errorf("position after other predicates: err = %v, want ErrOutsideFragment", err)
	}
}

func TestFromPathErrors(t *testing.T) {
	bad := []string{
		`//a[b or c]`,
		`//a[not(b)]`,
		`doc("d")/.`,  // returns document node
		`//a/@id/b`,   // attribute step not last
		`//a[@id[x]]`, // predicate on attribute
		`//a[b=c]`,    // path-vs-path inside predicate
	}
	for _, s := range bad {
		p, err := xpath.Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if _, err := FromPath(p); err == nil {
			t.Errorf("FromPath(%q) succeeded, want error", s)
		}
	}
}

const example1 = `<bib>{
for $book1 in doc("bib.xml")//book, $book2 in doc("bib.xml")//book
let $aut1 := $book1/author
let $aut2 := $book2/author
where $book1 << $book2
  and not($book1/title = $book2/title)
  and deep-equal($aut1, $aut2)
return <book-pair>{ $book1/title }{ $book2/title }</book-pair>
}</bib>`

// TestExample1Figure1 verifies that compiling the paper's Example 1
// reproduces Figure 1: one shared bib.xml root, two book blossoms hanging
// off it by //(f) edges, author children by /(l) edges, title children by
// /(l) edges, and three crossing edges (<<, not(=), deep-equal).
//
// Figure 1 in the paper draws the title edges as mandatory ("f"), but the
// negated value crossing makes that incorrect for books without a title:
// not($book1/title = $book2/title) is TRUE when either title sequence is
// empty, so those rows must survive to the crossing evaluation. Negated
// crossings therefore ride optional edges here.
func TestExample1Figure1(t *testing.T) {
	q, err := FromFLWOR(flwor.MustParse(example1))
	if err != nil {
		t.Fatal(err)
	}
	bt := q.Tree
	if len(bt.Roots) != 1 {
		t.Fatalf("roots = %d, want 1 (both for-clauses share bib.xml)", len(bt.Roots))
	}
	root := bt.Roots[0]
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	b1, b2 := root.Children[0], root.Children[1]
	for _, b := range []*Vertex{b1, b2} {
		if b.Test != "book" || b.ParentRel != RelDescendant || b.ParentMode != Mandatory || !b.ForBound {
			t.Errorf("book vertex = %s rel=%v mode=%v for=%v", b.Label(), b.ParentRel, b.ParentMode, b.ForBound)
		}
		if len(b.Children) != 2 {
			t.Fatalf("book children = %d, want 2 (author, title)", len(b.Children))
		}
		var author, title *Vertex
		for _, c := range b.Children {
			switch c.Test {
			case "author":
				author = c
			case "title":
				title = c
			}
		}
		if author == nil || author.ParentMode != Optional {
			t.Errorf("author edge mode = %+v, want l", author)
		}
		if title == nil || title.ParentMode != Optional {
			t.Errorf("title edge mode = %+v, want l (negated crossing endpoint)", title)
		}
	}
	if b1.Blossom != "book1" || b2.Blossom != "book2" {
		t.Errorf("blossoms = %q, %q", b1.Blossom, b2.Blossom)
	}

	if len(bt.Crossings) != 3 {
		t.Fatalf("crossings = %d, want 3", len(bt.Crossings))
	}
	var kinds []CrossKind
	for _, c := range bt.Crossings {
		kinds = append(kinds, c.Kind)
	}
	if kinds[0] != CrossDocOrder || kinds[1] != CrossValue || kinds[2] != CrossDeepEqual {
		t.Errorf("crossing kinds = %v", kinds)
	}
	if !bt.Crossings[1].Negate {
		t.Error("value crossing should be negated (not(… = …))")
	}
	if bt.Crossings[0].Negate || bt.Crossings[2].Negate {
		t.Error("<< and deep-equal should not be negated")
	}
	if len(q.Residual) != 0 {
		t.Errorf("residual = %v, want none", q.Residual)
	}

	// Dewey IDs: books are 1.1 and 1.2; their returning children follow.
	if !slices.Equal(b1.Dewey, Dewey{1, 1}) || !slices.Equal(b2.Dewey, Dewey{1, 2}) {
		t.Errorf("book Deweys = %v, %v", b1.Dewey, b2.Dewey)
	}
	aut1, _ := vertexOfVar(bt, "aut1")
	if !slices.Equal(aut1.Dewey, Dewey{1, 1, 1}) {
		t.Errorf("aut1 Dewey = %v", aut1.Dewey)
	}
	rt := q.Return
	if len(rt.Nodes) != 7 { // super-root + 2 books + 2 authors + 2 titles
		t.Errorf("returning tree has %d nodes, want 7", len(rt.Nodes))
	}
	if n, ok := rt.ByVar("book2"); !ok || !slices.Equal(n.Dewey, Dewey{1, 2}) {
		t.Errorf("ByVar(book2) = %v, %v", n, ok)
	}
	if n, ok := rt.ByVertex(b1); !ok || n.Dewey.String() != "1.1" || rt.Nodes[n.Slot] != n || !slices.Equal(n.Path, []int{0}) {
		t.Errorf("ByVertex(b1) = %v, %v", n, ok)
	}
	if _, ok := rt.ByVar("zzz"); ok {
		t.Error("ByVar(zzz) should miss")
	}

	// Decomposition: NoK{~}, NoK{book1, author, title}, NoK{book2, …}.
	d, err := Decompose(bt)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NoKs) != 3 {
		t.Fatalf("NoKs = %d:\n%s", len(d.NoKs), d)
	}
	if d.NoKs[1].Size() != 3 || d.NoKs[2].Size() != 3 {
		t.Errorf("book NoK sizes = %d, %d, want 3, 3", d.NoKs[1].Size(), d.NoKs[2].Size())
	}
	for _, l := range d.Links {
		if !l.IsScan() {
			t.Errorf("link %v should be a scan link", l)
		}
	}
	if n, ok := d.NoKOf(aut1); !ok || n != d.NoKs[1] {
		t.Errorf("NoKOf(aut1) = %v", n)
	}
	// Rendering sanity.
	s := d.String()
	for _, frag := range []string{"NoK0", "NoK1", "NoK2", "scan", "cross:", "deep-equal"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Decomposition.String missing %q:\n%s", frag, s)
		}
	}
	if !strings.Contains(bt.String(), "($book1)#1.1") {
		t.Errorf("BlossomTree.String = %s", bt.String())
	}
}

func TestFromFLWORResidual(t *testing.T) {
	cases := []string{
		`for $a in doc("d")//a where $a/x = 1 or $a/y = 2 return $a`,
		`for $a in doc("d")//a where not($a/x = 1) return $a`,
		`for $a in doc("d")//a where not(exists($a/x)) return $a`,
		`for $a in doc("d")//a where not($a/x and $a/y) return $a`,
	}
	for _, src := range cases {
		q, err := FromFLWOR(flwor.MustParse(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(q.Residual) != 1 {
			t.Errorf("%s: residual = %v, want exactly 1", src, q.Residual)
		}
	}
}

func TestFromFLWORWhereLiteral(t *testing.T) {
	q, err := FromFLWOR(flwor.MustParse(`for $a in doc("d")//a where $a/price < 10 return $a`))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := q.Vars["a"]
	var price *Vertex
	for _, c := range a.Children {
		if c.Test == "price" {
			price = c
		}
	}
	if price == nil || len(price.Constraints) != 1 || price.Constraints[0].Op != xpath.OpLt || price.Constraints[0].Value != "10" {
		t.Fatalf("price = %+v", price)
	}
	if len(q.Residual) != 0 {
		t.Errorf("residual = %v", q.Residual)
	}
	// Flipped literal: 10 > $a/price is the same constraint.
	q2, err := FromFLWOR(flwor.MustParse(`for $a in doc("d")//a where 10 > $a/price return $a`))
	if err != nil {
		t.Fatal(err)
	}
	a2 := q2.Vars["a"]
	if len(a2.Children) != 1 || a2.Children[0].Constraints[0].Op != xpath.OpLt {
		t.Errorf("flipped constraint = %+v", a2.Children[0].Constraints)
	}
}

func TestFromFLWORDocOrderSwap(t *testing.T) {
	q, err := FromFLWOR(flwor.MustParse(`for $a in doc("d")//a, $b in doc("d")//b where $a >> $b return $a`))
	if err != nil {
		t.Fatal(err)
	}
	c := q.Tree.Crossings[0]
	if c.Kind != CrossDocOrder || c.From.Test != "b" || c.To.Test != "a" {
		t.Errorf("crossing = %s", c)
	}
}

func TestFromFLWORSharedReturnPath(t *testing.T) {
	// The same $a/title path in where and return must reuse one vertex.
	q, err := FromFLWOR(flwor.MustParse(
		`for $a in doc("d")//a, $b in doc("d")//b where $a/title = $b/title return <r>{ $a/title }</r>`))
	if err != nil {
		t.Fatal(err)
	}
	a := q.Vars["a"]
	titles := 0
	for _, c := range a.Children {
		if c.Test == "title" {
			titles++
			if c.ParentMode != Mandatory {
				t.Error("where-extension must stay mandatory after return reuse")
			}
		}
	}
	if titles != 1 {
		t.Errorf("title vertices = %d, want 1 (reused)", titles)
	}
}

func TestFromFLWORErrors(t *testing.T) {
	bad := []struct{ src, want string }{
		{`for $a in doc("d")//a[b or c] return $a`, "disjunctive path predicates"},
		{`for $a in doc("d")//a return <r>{ for $b in doc("d")//b return $b }</r>`, "nested FLWOR"},
		// An unanchored where-operand is named in the error.
		{`for $x in doc("d")//a where a = 1 return $x`, "relative path a has no anchor in a FLWOR clause"},
		{`for $x in doc("d")//a where 1 < b/c return $x`, "relative path b/c has no anchor in a FLWOR clause"},
	}
	for _, c := range bad {
		e := flwor.MustParse(c.src)
		if _, err := FromFLWOR(e); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("FromFLWOR(%q) = %v, want an error containing %q", c.src, err, c.want)
		}
	}
	// Non-FLWOR expressions.
	if _, err := FromFLWOR(&flwor.PathExpr{Path: xpath.MustParse("//a")}); err == nil {
		t.Error("FromFLWOR(path) should fail")
	}
	if _, err := FromFLWOR(&flwor.ElemCtor{Tag: "x"}); err == nil {
		t.Error("FromFLWOR(empty ctor) should fail")
	}
}

func TestConstraintMatch(t *testing.T) {
	doc, err := xmltree.ParseString(`<a id="7"><b>hello</b><b>10</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	a := doc.DocumentElement()
	b1 := a.FirstChild
	b2 := b1.NextSibling

	c := Constraint{Kind: CValue, Op: xpath.OpEq, Value: "hello"}
	if !c.Match(b1, 0) || c.Match(b2, 0) {
		t.Error("CValue wrong")
	}
	c = Constraint{Kind: CValue, Op: xpath.OpLt, Value: "20"}
	if !c.Match(b2, 0) {
		t.Error("numeric CValue wrong")
	}
	c = Constraint{Kind: CAttr, Attr: "id", Op: xpath.OpEq, Value: "7"}
	if !c.Match(a, 0) || c.Match(b1, 0) {
		t.Error("CAttr wrong")
	}
	c = Constraint{Kind: CAttrExists, Attr: "id"}
	if !c.Match(a, 0) || c.Match(b1, 0) {
		t.Error("CAttrExists wrong")
	}
	c = Constraint{Kind: CPosition, Pos: 2}
	if c.Match(b1, 1) || !c.Match(b1, 2) {
		t.Error("CPosition wrong")
	}
	for _, c := range []Constraint{
		{Kind: CValue, Op: xpath.OpEq, Value: "x"},
		{Kind: CAttr, Attr: "a", Op: xpath.OpEq, Value: "x"},
		{Kind: CAttrExists, Attr: "a"},
		{Kind: CPosition, Pos: 1},
	} {
		if c.String() == "" || c.String() == "?" {
			t.Errorf("Constraint.String(%v) = %q", c.Kind, c.String())
		}
	}
}

func TestCrossingEval(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a>x</a><a>y</a><b>y</b><c><d/></c><c><d/></c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.DocumentElement()
	as := xmltree.Children(r, "a")
	bs := xmltree.Children(r, "b")
	cs := xmltree.Children(r, "c")

	doOrder := &Crossing{Kind: CrossDocOrder}
	if !doOrder.Eval(as, bs) {
		t.Error("a << b should hold")
	}
	if doOrder.Eval(bs, as) {
		t.Error("b << a should fail")
	}
	if doOrder.Eval([]*xmltree.Node{bs[0]}, []*xmltree.Node{bs[0]}) {
		t.Error("n << n must be false")
	}

	val := &Crossing{Kind: CrossValue, Op: xpath.OpEq}
	if !val.Eval(as, bs) { // a2 "y" = b "y"
		t.Error("value = should hold")
	}
	if val.Eval(as[:1], bs) {
		t.Error("x = y should fail")
	}
	neg := &Crossing{Kind: CrossValue, Op: xpath.OpEq, Negate: true}
	if neg.Eval(as, bs) {
		t.Error("negated = should fail")
	}

	de := &Crossing{Kind: CrossDeepEqual}
	if !de.Eval(cs[:1], cs[1:]) {
		t.Error("identical c subtrees should be deep-equal")
	}
	if de.Eval(as[:1], bs) {
		t.Error("<a>x</a> vs <b>y</b> deep-equal")
	}
	if !de.Eval(nil, nil) {
		t.Error("two empty sequences must be deep-equal")
	}
}

// TestCrossingEvalTable covers multi-valued, empty and negated
// endpoints of every crossing kind, and attribute endpoints: a crossing
// holds when some pair of its endpoints' matches witnesses it, and a
// negated one when no pair does.
func TestCrossingEvalTable(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a k="1">x</a><a k="2">y</a><b k="01">y</b><b>z</b><c k=" 2 ">1.0</c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.DocumentElement()
	as, bs, cs := xmltree.Children(r, "a"), xmltree.Children(r, "b"), xmltree.Children(r, "c")
	eq := func(neg bool) *Crossing { return &Crossing{Kind: CrossValue, Op: xpath.OpEq, Negate: neg} }
	attrEq := &Crossing{Kind: CrossValue, Op: xpath.OpEq, FromAttr: "k", ToAttr: "k"}
	lt := &Crossing{Kind: CrossValue, Op: xpath.OpLt}
	before := func(neg bool) *Crossing { return &Crossing{Kind: CrossDocOrder, Negate: neg} }
	for _, tc := range []struct {
		name        string
		c           *Crossing
		left, right []*xmltree.Node
		want        bool
	}{
		{"= multi-valued, second left witnesses", eq(false), as, bs, true},
		{"= multi-valued, no witness", eq(false), as[:1], bs, false},
		{"= empty left", eq(false), nil, bs, false},
		{"= empty right", eq(false), as, nil, false},
		{"not(=) empty", eq(true), nil, bs, true},
		{"not(=) with a witness", eq(true), as, bs, false},
		{"not(=) without a witness", eq(true), as[:1], bs, true},
		{"= numeric across kinds", eq(false), []*xmltree.Node{as[0], cs[0]}, []*xmltree.Node{as[0]}, true},
		{"@k = @k numeric", attrEq, as[:1], bs[:1], true},
		{"@k = @k, right attribute absent", attrEq, as, bs[1:], false},
		{"@k = @k trimmed number", attrEq, as, cs, true},
		{"< multi-valued", lt, bs, as, false},
		{"< witness on the right's second value", lt, as[:1], bs, true},
		{"<< multi-valued", before(false), bs, as, false},
		{"<< witness", before(false), []*xmltree.Node{bs[1], as[0]}, bs, true},
		{"<< empty", before(false), nil, bs, false},
		{"not(<<) empty", before(true), as, nil, true},
		{"not(<<) with a witness", before(true), as, bs, false},
	} {
		if got := tc.c.Eval(tc.left, tc.right); got != tc.want {
			t.Errorf("%s: Eval = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAppendKeysMeetAsEval: the key sets of two endpoints' matches meet
// exactly when the non-negated = crossing holds between them.
func TestAppendKeysMeetAsEval(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><v k="1"> 1 </v><v>1.0</v><v k="-0">-0</v><v>0</v><v k="x">NaN</v><v>NaN</v><v>inf</v><v>Infinity</v><v>india</v><v/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	vs := xmltree.Children(doc.DocumentElement(), "v")
	for _, attr := range []string{"", "k"} {
		c := &Crossing{Kind: CrossValue, Op: xpath.OpEq, FromAttr: attr, ToAttr: attr}
		sets := [][]*xmltree.Node{nil, vs, vs[:2], vs[2:4], vs[4:6], vs[6:8], vs[8:]}
		for _, l := range vs {
			sets = append(sets, []*xmltree.Node{l})
		}
		for _, l := range sets {
			lk := AppendKeys(nil, l, attr)
			distinct := map[xpath.EqKey]bool{}
			for _, k := range lk {
				distinct[k] = true
			}
			if len(distinct) != len(lk) {
				t.Errorf("AppendKeys(%v) repeats a key: %v", l, lk)
			}
			for _, r := range sets {
				rk := AppendKeys(nil, r, attr)
				meet := slices.ContainsFunc(lk, func(k xpath.EqKey) bool { return slices.Contains(rk, k) })
				if want := c.Eval(l, r); meet != want {
					t.Errorf("attr %q: keys %v and %v meet = %v, Eval = %v", attr, lk, rk, meet, want)
				}
			}
		}
	}
}

func TestRelHolds(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b/></a><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.DocumentElement()
	a := xmltree.Children(r, "a")[0]
	b := a.FirstChild
	c := xmltree.Children(r, "c")[0]

	if !RelChild.Holds(a, b) || RelChild.Holds(r, b) {
		t.Error("RelChild wrong")
	}
	if !RelDescendant.Holds(r, b) || RelDescendant.Holds(a, c) {
		t.Error("RelDescendant wrong")
	}
	if !RelFollowingSibling.Holds(a, c) || RelFollowingSibling.Holds(c, a) || RelFollowingSibling.Holds(a, b) {
		t.Error("RelFollowingSibling wrong")
	}
	if RelChild.Local() != true || RelDescendant.Local() != false {
		t.Error("Local wrong")
	}
	if Rel(9).Holds(a, b) {
		t.Error("unknown rel should not hold")
	}
}

func TestReturnNodeChildOrdinal(t *testing.T) {
	q, err := FromFLWOR(flwor.MustParse(example1))
	if err != nil {
		t.Fatal(err)
	}
	rt := q.Return
	if rt.Root.ChildOrdinal() != 0 {
		t.Error("super-root ordinal")
	}
	if rt.Root.Children[1].ChildOrdinal() != 1 {
		t.Error("second child ordinal")
	}
}

func TestFinalizeIdempotentViaReturnTree(t *testing.T) {
	q, _ := FromPath(xpath.MustParse(`//a//b`))
	rt1 := q.Tree.ReturnTree()
	rt2 := q.Tree.ReturnTree()
	if rt1 != rt2 {
		t.Error("ReturnTree should memoize")
	}
}

func TestVertexMatchesNode(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a x="1">v</a>t</r>`)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.DocumentElement()
	a := r.FirstChild
	text := a.NextSibling

	v := &Vertex{Test: "a"}
	if !v.MatchesNode(a) || v.MatchesNode(r) || v.MatchesNode(text) {
		t.Error("tag test wrong")
	}
	v = &Vertex{Test: "*"}
	if !v.MatchesNode(a) || !v.MatchesNode(r) || v.MatchesNode(text) {
		t.Error("wildcard wrong")
	}
	v = &Vertex{Test: "a", Constraints: []Constraint{{Kind: CValue, Op: xpath.OpEq, Value: "v"}}}
	if !v.MatchesNode(a) {
		t.Error("value constraint should pass")
	}
	v = &Vertex{Test: "a", Constraints: []Constraint{{Kind: CValue, Op: xpath.OpEq, Value: "w"}}}
	if v.MatchesNode(a) {
		t.Error("value constraint should fail")
	}
	v = &Vertex{Test: "a", Constraints: []Constraint{{Kind: CPosition, Pos: 5}}}
	if !v.MatchesNode(a) {
		t.Error("positional constraints are deferred, MatchesNode should pass")
	}
	v = &Vertex{Test: "~"}
	if !v.MatchesNode(doc.Root) || v.MatchesNode(a) {
		t.Error("doc-root vertex wrong")
	}
}

// TestQuickDecompositionInvariants: for random path queries, every
// vertex lands in exactly one NoK, NoK-internal edges are local, every
// cut edge is a // edge, and the link graph is a tree rooted at the
// pattern roots.
func TestQuickDecompositionInvariants(t *testing.T) {
	tags := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		steps := 1 + r.Intn(5)
		for i := 0; i < steps; i++ {
			if r.Intn(2) == 0 {
				sb.WriteString("//")
			} else {
				sb.WriteString("/")
			}
			sb.WriteString(tags[r.Intn(len(tags))])
			if r.Intn(3) == 0 {
				if r.Intn(2) == 0 {
					sb.WriteString("[//" + tags[r.Intn(len(tags))] + "]")
				} else {
					sb.WriteString("[" + tags[r.Intn(len(tags))] + "]")
				}
			}
		}
		q, err := FromPath(xpath.MustParse(sb.String()))
		if err != nil {
			return false
		}
		d, err := Decompose(q.Tree)
		if err != nil {
			t.Logf("%s: %v", sb.String(), err)
			return false
		}
		// Each vertex in exactly one NoK.
		count := map[*Vertex]int{}
		for _, n := range d.NoKs {
			for v := range n.Members {
				count[v]++
			}
		}
		for _, v := range q.Tree.Vertices {
			if count[v] != 1 {
				t.Logf("%s: vertex %s in %d NoKs", sb.String(), v.Label(), count[v])
				return false
			}
		}
		// NoK-internal edges local; links are // edges with parents in
		// other NoKs.
		for _, n := range d.NoKs {
			for v := range n.Members {
				if v.Parent != nil && n.Members[v.Parent] && !v.ParentRel.Local() {
					return false
				}
			}
		}
		childCount := map[*NoK]int{}
		for _, l := range d.Links {
			childCount[l.Child]++
			if l.Child.Root.ParentRel.Local() {
				return false
			}
			if pn, _ := d.NoKOf(l.Parent); pn == l.Child {
				return false
			}
		}
		// Tree: every non-root NoK has exactly one incoming link.
		for _, n := range d.NoKs {
			isRoot := n.Root.Parent == nil
			if isRoot && childCount[n] != 0 {
				return false
			}
			if !isRoot && childCount[n] != 1 {
				return false
			}
		}
		// Every returning vertex's Dewey label extends its
		// returning-tree parent's by one ordinal.
		for _, rn := range q.Return.Nodes[1:] {
			if !slices.Equal(rn.Parent.Dewey, rn.Dewey[:len(rn.Dewey)-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestExactCells pins which return- and order-by paths read their
// endpoint's cell (Query.Cells) and which navigate: a path whose vertices
// something else narrows, or whose steps the cell cannot follow, must
// navigate.
func TestExactCells(t *testing.T) {
	cases := []struct {
		query string
		exact []string // the return/order-by paths with a cell, as printed
	}{
		{`for $x in doc("d")//x where exists($x/a/b) return <r>{ $x/a }</r>`, nil},
		{`for $x in doc("d")//x where exists($x/a) return <r>{ $x/a }</r>`, []string{"$x/a"}},
		{`for $x in doc("d")//x where $x/a = "v" return <r>{ $x/a }</r>`, []string{"$x/a"}},
		{`for $x in doc("d")//x let $l := $x//a return <r>{ $l }{ $l/b }</r>`, []string{"$l", "$l/b"}},
		{`for $x in doc("d")//x return <r>{ $x//t }{ $x/a/b }{ $x//a//b }</r>`, []string{"$x//t", "$x/a/b", "$x//a//b"}},
		{`for $x in doc("d")//x return <r>{ $x/a/text() }{ $x/c/@id }{ $x/@id }</r>`, []string{"$x/a/text()", "$x/c/@id", "$x/@id"}},
		{`for $x in doc("d")//x order by $x/k return $x/k`, []string{"$x/k", "$x/k"}},
		{`for $x in doc("d")//x return <r>{ $x/a[b] }{ $x/a[1] }{ $x/.. }{ doc("d")//y }</r>`, nil},
		{`for $x in doc("d")//x, $y in $x/a return <r>{ $x/a }{ $y }</r>`, []string{"$x/a", "$y"}},
		{`for $x in doc("d")//x return <r>{ $x/a/.. }{ $x/following-sibling::a }</r>`, nil},
	}
	for _, tc := range cases {
		e, err := flwor.Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		q, err := FromFLWOR(e)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		var got []string
		for p, rn := range q.Cells {
			if rn == nil || rn.Vertex == nil {
				t.Errorf("%s: %s has no returning node", tc.query, p)
			}
			got = append(got, p.String())
		}
		slices.Sort(got)
		want := slices.Clone(tc.exact)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: exact cells %q, want %q", tc.query, got, want)
		}
	}
}

// vertexOfVar returns the vertex a variable is bound to.
func vertexOfVar(bt *BlossomTree, name string) (*Vertex, bool) {
	for _, v := range bt.Vertices {
		if v.Blossom == name {
			return v, true
		}
	}
	return nil, false
}
