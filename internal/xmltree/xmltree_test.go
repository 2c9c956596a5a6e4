package xmltree

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

const bibXML = `<bib>
  <book>
    <title> Maximum Security </title>
  </book>
  <book>
    <title> The Art of Computer Programming </title>
    <author>
      <last> Knuth </last>
      <first> Donald </first>
    </author>
  </book>
  <book>
    <title> Terrorist Hunter </title>
  </book>
  <book>
    <title> TeX Book </title>
    <author>
      <last> Knuth </last>
      <first> Donald </first>
    </author>
  </book>
</bib>`

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	doc, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return doc
}

func TestParseBib(t *testing.T) {
	doc := mustParse(t, bibXML)
	root := doc.DocumentElement()
	if root == nil || root.Tag != "bib" {
		t.Fatalf("document element = %v, want <bib>", root)
	}
	books := Children(root, "book")
	if len(books) != 4 {
		t.Fatalf("got %d books, want 4", len(books))
	}
	authors := Descendants(root, "author")
	if len(authors) != 2 {
		t.Fatalf("got %d authors, want 2", len(authors))
	}
	if got := StringValue(Children(books[0], "title")[0]); got != "Maximum Security" {
		t.Errorf("title string-value = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"unclosed", "<a><b></b>"},
		{"mismatched", "<a></b>"},
		{"text only", "hello"},
		{"stray end", "</a>"},
		{"two roots", "<a/><b/>"},
		{"garbage after", "<a/><"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseString(c.in); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", c.in)
			}
		})
	}
}

func TestParseAttributesAndEscapes(t *testing.T) {
	doc := mustParse(t, `<a id="1" name="x&amp;y"><b q='z'>T&lt;U</b></a>`)
	a := doc.DocumentElement()
	if v, ok := a.Attr("name"); !ok || v != "x&y" {
		t.Errorf("attr name = %q, %v", v, ok)
	}
	if _, ok := a.Attr("missing"); ok {
		t.Error("Attr(missing) reported present")
	}
	b := Children(a, "b")[0]
	if got := StringValue(b); got != "T<U" {
		t.Errorf("string-value = %q, want T<U", got)
	}
}

func TestRegionEncoding(t *testing.T) {
	doc := mustParse(t, `<a><b><c/><d/></b><e/></a>`)
	a := doc.DocumentElement()
	b := Children(a, "b")[0]
	c := Children(b, "c")[0]
	d := Children(b, "d")[0]
	e := Children(a, "e")[0]

	if !a.IsAncestorOf(c) || !b.IsAncestorOf(d) || !a.IsAncestorOf(e) {
		t.Error("expected ancestor relationships missing")
	}
	if b.IsAncestorOf(e) || c.IsAncestorOf(d) || a.IsAncestorOf(a) {
		t.Error("unexpected ancestor relationships")
	}
	if !c.Before(d) || !b.Before(e) || !a.Before(c) || d.Before(c) {
		t.Error("document order wrong")
	}
	if !a.IsAncestorOf(c) || b.IsAncestorOf(e) {
		t.Error("descendant test wrong")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.End()
	if _, err := b.Done(); err == nil {
		t.Error("End with no open element: want error")
	}

	b = NewBuilder()
	b.Start("a").End().Start("b").End()
	if _, err := b.Done(); err == nil {
		t.Error("two root elements: want error")
	}

	b = NewBuilder()
	b.Text("floating")
	if _, err := b.Done(); err == nil {
		t.Error("text outside element: want error")
	}

	b = NewBuilder()
	b.Start("a")
	if _, err := b.Done(); err == nil {
		t.Error("unclosed element: want error")
	}

	b = NewBuilder()
	b.Start("")
	if b.Err() == nil {
		t.Error("empty tag: want error")
	}
}

func TestNavigation(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b><d/></a>`)
	a := doc.DocumentElement()
	want := []string{"a", "b", "c", "d"}
	var got []string
	Elements(a, func(n *Node) { got = append(got, n.Tag) })
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("preorder = %v, want %v", got, want)
	}

	b := Children(a, "b")[0]
	c := Children(b, "c")[0]
	if got := Path(c); got != "/a/b/c" {
		t.Errorf("Path = %q", got)
	}
	anc := Ancestors(c)
	if len(anc) != 2 || anc[0].Tag != "b" || anc[1].Tag != "a" {
		t.Errorf("Ancestors = %v", anc)
	}
}

func TestDeepEqual(t *testing.T) {
	doc := mustParse(t, bibXML)
	authors := Descendants(doc.DocumentElement(), "author")
	if !DeepEqual(authors[0], authors[1]) {
		t.Error("the two Knuth author subtrees should be deep-equal")
	}
	titles := Descendants(doc.DocumentElement(), "title")
	if DeepEqual(titles[0], titles[1]) {
		t.Error("distinct titles reported deep-equal")
	}
	if !DeepEqualSeq(nil, nil) {
		t.Error("two empty sequences must be deep-equal")
	}
	if DeepEqualSeq([]*Node{authors[0]}, nil) {
		t.Error("non-empty vs empty sequence reported deep-equal")
	}
	if DeepEqual(authors[0], titles[0]) {
		t.Error("author vs title reported deep-equal")
	}
}

func TestStats(t *testing.T) {
	doc := mustParse(t, `<a><a><b/></a><b/><c>t</c></a>`)
	doc.Name = "test"
	s := ComputeStats(doc)
	if s.Elements != 5 {
		t.Errorf("Elements = %d, want 5", s.Elements)
	}
	if s.Texts != 1 || s.Nodes != 6 {
		t.Errorf("Texts=%d Nodes=%d, want 1, 6", s.Texts, s.Nodes)
	}
	if s.Tags != 3 {
		t.Errorf("Tags = %d, want 3", s.Tags)
	}
	if !s.Recursive || s.MaxRecursion != 2 {
		t.Errorf("Recursive=%v MaxRecursion=%d, want true, 2", s.Recursive, s.MaxRecursion)
	}
	if s.MaxDepth != 3 {
		t.Errorf("MaxDepth = %d, want 3", s.MaxDepth)
	}
	if s.TagCounts["a"] != 2 || s.TagCounts["b"] != 2 || s.TagCounts["c"] != 1 {
		t.Errorf("TagCounts = %v", s.TagCounts)
	}
	if !strings.Contains(s.String(), "recursive Y") {
		t.Errorf("Stats.String = %q", s.String())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	doc := mustParse(t, `<a id="1"><b>hello &amp; goodbye</b><c/><d>x<e/>y</d></a>`)
	out := Serialize(doc.Root, WriteOptions{})
	doc2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v\nserialized: %s", err, out)
	}
	if !DeepEqual(doc.DocumentElement(), doc2.DocumentElement()) {
		t.Errorf("round trip not deep-equal:\n%s\nvs\n%s", out, Serialize(doc2.Root, WriteOptions{}))
	}
	pretty := Serialize(doc.Root, WriteOptions{Indent: true})
	doc3, err := ParseString(pretty)
	if err != nil {
		t.Fatalf("reparse indented: %v\n%s", err, pretty)
	}
	if doc3.DocumentElement().Tag != "a" {
		t.Error("indented reparse lost root")
	}
}

func TestWriteToWriter(t *testing.T) {
	doc := mustParse(t, `<a><b/></a>`)
	var sb strings.Builder
	if err := Write(&sb, doc.Root, WriteOptions{Indent: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<a>") {
		t.Errorf("Write output = %q", sb.String())
	}
}

// randomDoc builds a random labeled document with the given rng: up to
// maxNodes elements drawn from a small alphabet, random fan-out and depth.
func randomDoc(r *rand.Rand, maxNodes int) *Document {
	tags := []string{"a", "b", "c", "d", "e"}
	b := NewBuilder()
	n := 1 + r.Intn(maxNodes)
	b.Start(tags[r.Intn(len(tags))])
	count := 1
	depth := 1
	lastWasText := false
	for count < n {
		switch {
		case depth > 1 && r.Intn(3) == 0:
			b.End()
			depth--
			lastWasText = false
		case !lastWasText && r.Intn(5) == 0:
			b.Text("t")
			lastWasText = true
		default:
			b.Start(tags[r.Intn(len(tags))])
			depth++
			count++
			lastWasText = false
		}
	}
	for depth > 0 {
		b.End()
		depth--
	}
	return b.MustDone()
}

// TestQuickRegionLabelsMatchPointers cross-checks the O(1) region-encoded
// ancestor and order tests against the pointer-based ground truth on
// random documents.
func TestQuickRegionLabelsMatchPointers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, 60)
		var nodes []*Node
		Walk(doc.DocumentElement(), func(n *Node) bool {
			nodes = append(nodes, n)
			return true
		})
		for i := 0; i < 200; i++ {
			u := nodes[r.Intn(len(nodes))]
			v := nodes[r.Intn(len(nodes))]
			truth := false
			for p := v.Parent; p != nil; p = p.Parent {
				if p == u {
					truth = true
					break
				}
			}
			if u.IsAncestorOf(v) != truth {
				t.Logf("ancestor mismatch: %v vs %v", u, v)
				return false
			}
			if u != v && u.Before(v) == v.Before(u) {
				t.Logf("order not antisymmetric: %v vs %v", u, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSerializeParseRoundTrip verifies parse(serialize(doc)) is
// deep-equal to doc for random documents.
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, 80)
		out := Serialize(doc.Root, WriteOptions{})
		doc2, err := ParseString(out)
		if err != nil {
			t.Logf("reparse failed: %v", err)
			return false
		}
		return DeepEqual(doc.DocumentElement(), doc2.DocumentElement())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickPreorderMatchesStart verifies that Start labels enumerate in
// exactly document order and End bounds every descendant.
func TestQuickPreorderMatchesStart(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, 80)
		prev := -1
		ok := true
		Walk(doc.DocumentElement(), func(n *Node) bool {
			if n.Start <= prev {
				ok = false
			}
			prev = n.Start
			if n.End < n.Start {
				ok = false
			}
			for c := n.FirstChild; c != nil; c = c.NextSibling {
				if c.Start <= n.Start || c.End > n.End || c.Level != n.Level+1 {
					ok = false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNodeString(t *testing.T) {
	doc := mustParse(t, `<a>some quite long text content here</a>`)
	a := doc.DocumentElement()
	if !strings.Contains(a.String(), "<a>") {
		t.Errorf("element String = %q", a.String())
	}
	txt := a.FirstChild
	if !strings.Contains(txt.String(), "#text") {
		t.Errorf("text String = %q", txt.String())
	}
	if doc.Root.String() != "#document" {
		t.Errorf("document String = %q", doc.Root.String())
	}
	var nilNode *Node
	if nilNode.String() != "<nil>" {
		t.Errorf("nil String = %q", nilNode.String())
	}
	if DocumentNode.String() != "document" || ElementNode.String() != "element" || TextNode.String() != "text" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind = %q", Kind(9).String())
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512 B",
		2048:      "2.0 KB",
		5 << 20:   "5.0 MB",
		69 << 20:  "69.0 MB",
		133 << 20: "133.0 MB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, want, got)
		}
	}
}

func TestBuilderElemAndDepth(t *testing.T) {
	b := NewBuilder()
	b.Start("r")
	if b.Depth() != 1 {
		t.Errorf("Depth = %d", b.Depth())
	}
	b.Elem("leaf", "text")
	b.Elem("empty", "")
	b.End()
	doc := b.MustDone()
	r := doc.DocumentElement()
	kids := Children(r, "")
	if len(kids) != 2 || kids[0].Tag != "leaf" {
		t.Errorf("children = %v", kids)
	}
	if StringValue(kids[0]) != "text" {
		t.Errorf("leaf value = %q", StringValue(kids[0]))
	}
	if kids[1].FirstChild != nil {
		t.Error("empty Elem should have no children")
	}
	if kids[0].FirstChild.Kind != TextNode || kids[0].Kind == TextNode {
		t.Error("node kinds wrong")
	}
	if doc.NodeCount() != 4 {
		t.Errorf("NodeCount = %d", doc.NodeCount())
	}
}

func TestElementsWalker(t *testing.T) {
	doc := mustParse(t, `<a>t<b/><c>u</c></a>`)
	var tags []string
	Elements(doc.Root, func(n *Node) { tags = append(tags, n.Tag) })
	if strings.Join(tags, " ") != "a b c" {
		t.Errorf("Elements = %v", tags)
	}
	// Walk early-stop: don't descend into b... make nested.
	doc = mustParse(t, `<a><b><c/></b><d/></a>`)
	var seen []string
	Walk(doc.DocumentElement(), func(n *Node) bool {
		seen = append(seen, n.Tag)
		return n.Tag != "b" // skip b's subtree
	})
	if strings.Join(seen, " ") != "a b d" {
		t.Errorf("Walk with prune = %v", seen)
	}
	Walk(nil, func(*Node) bool { return true }) // no panic
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/doc.xml"
	if err := os.WriteFile(path, []byte(`<a><b/></a>`), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.DocumentElement().Tag != "a" || doc.Bytes != 11 || doc.Name != path {
		t.Errorf("doc = %+v", doc)
	}
	if _, err := ParseFile(dir + "/missing.xml"); err == nil {
		t.Error("missing file should fail")
	}
	bad := dir + "/bad.xml"
	os.WriteFile(bad, []byte(`<a>`), 0o644)
	if _, err := ParseFile(bad); err == nil {
		t.Error("malformed file should fail")
	}
}

func TestBeforeNil(t *testing.T) {
	doc := mustParse(t, `<a/>`)
	a := doc.DocumentElement()
	var nilN *Node
	if a.Before(nilN) || nilN.Before(a) {
		t.Error("Before with nil should be false")
	}
	if a.IsAncestorOf(nil) || nilN.IsAncestorOf(a) {
		t.Error("IsAncestorOf with nil should be false")
	}
}

func TestDeepEqualSeqMismatch(t *testing.T) {
	doc := mustParse(t, `<r><a/><b/></r>`)
	r := doc.DocumentElement()
	a, b := r.FirstChild, r.FirstChild.NextSibling
	if DeepEqualSeq([]*Node{a}, []*Node{b}) {
		t.Error("different elements reported deep-equal")
	}
	if !DeepEqualSeq([]*Node{a, b}, []*Node{a, b}) {
		t.Error("identical sequences reported unequal")
	}
}
