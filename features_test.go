package blossomtree

import (
	"context"
	"strings"
	"testing"
)

// End-to-end coverage of the plan cache and the language fixes
// (order-by modifiers, text() steps, node-result serialization) through
// the public surface.

// TestPreparedQuery: the plan cache is the prepared form of a query —
// a repeat is served from it, a load makes the next run recompile and
// see the new catalog, and bad queries and strategies fail every run.
func TestPreparedQuery(t *testing.T) {
	e := newBib(t)
	const q = `//book[author/last="Knuth"]/title`
	for run := 0; run < 2; run++ {
		res, err := e.QueryWithContext(context.Background(), q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Nodes()) != 2 {
			t.Fatalf("run %d: nodes = %d, want 2", run, len(res.Nodes()))
		}
		if res.Cached() != (run == 1) {
			t.Errorf("run %d: cached = %v", run, res.Cached())
		}
	}

	if err := e.LoadString("more.xml", `<bib><book><author><last>Knuth</last></author><title>X</title></book></bib>`); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryWithContext(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached() {
		t.Error("run after LoadString reused a stale plan")
	}
	if res, err = e.Query(`doc("more.xml")` + q); err != nil || len(res.Nodes()) != 1 {
		t.Errorf("the loaded document: %v, %v; want its 1 title", res, err)
	}

	if _, err := e.Query(`//book[`); err == nil {
		t.Error("a broken query ran")
	}
	if _, err := e.QueryWith(`//book`, Options{Strategy: "bogus"}); err == nil {
		t.Error("an unknown strategy ran")
	}
}

func TestQueryCachedFlag(t *testing.T) {
	e := newBib(t)
	res, err := e.Query(`//book/price`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached() {
		t.Error("first Query reported cached")
	}
	res, err = e.Query(`//book/price`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached() {
		t.Error("repeated Query did not report cached")
	}
}

func TestOrderByDescending(t *testing.T) {
	e := newBib(t)
	asc, err := e.Query(`for $b in doc("bib.xml")//book order by $b/price ascending return $b`)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := e.Query(`for $b in doc("bib.xml")//book order by $b/price descending return $b`)
	if err != nil {
		t.Fatal(err)
	}
	if asc.Len() != 4 || desc.Len() != 4 {
		t.Fatalf("rows = %d asc, %d desc, want 4 each", asc.Len(), desc.Len())
	}
	first := func(r *Result, i int) string {
		ns := r.Rows()[i]["b"]
		if len(ns) == 0 {
			return ""
		}
		title := ns[0].Children("title")
		if len(title) == 0 {
			return ""
		}
		return title[0].Text()
	}
	if got := first(asc, 0); got != "Terrorist Hunter" { // price 25
		t.Errorf("ascending first = %q", got)
	}
	if got := first(desc, 0); got != "The Art of Computer Programming" { // price 120
		t.Errorf("descending first = %q", got)
	}
	// descending is ascending reversed (prices are distinct).
	for i := 0; i < 4; i++ {
		if first(asc, i) != first(desc, 3-i) {
			t.Errorf("row %d: ascending %q != reversed descending %q", i, first(asc, i), first(desc, 3-i))
		}
	}
}

func TestTextNodeQuery(t *testing.T) {
	e := newBib(t)
	res, err := e.Query(`//book[author/last="Knuth"]/title/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes()) != 2 {
		t.Fatalf("text nodes = %d, want 2", len(res.Nodes()))
	}
	n := res.Nodes()[0]
	if n.Tag() != "" {
		t.Errorf("text node Tag = %q, want empty", n.Tag())
	}
	if n.Text() != "The Art of Computer Programming" {
		t.Errorf("text node value = %q", n.Text())
	}
	if n.XML() != "The Art of Computer Programming" {
		t.Errorf("text node XML = %q, want the raw text", n.XML())
	}
}

// TestResultXMLNodeFallback: XML()/XMLIndent() on a constructor-less
// query serialize the node results in document order, or a FLWOR's
// returned nodes in iteration order, instead of returning "".
func TestResultXMLNodeFallback(t *testing.T) {
	e := newBib(t)

	res, err := e.Query(`//book[author/last="Knuth"]/title`)
	if err != nil {
		t.Fatal(err)
	}
	want := `<title>The Art of Computer Programming</title><title>TeX Book</title>`
	if got := res.XML(); got != want {
		t.Errorf("XML fallback = %q, want %q", got, want)
	}
	if got := res.XMLIndent(); !strings.Contains(got, "\n") {
		t.Errorf("XMLIndent fallback has no separator: %q", got)
	}

	// Text-node results serialize as their raw text.
	res, err = e.Query(`//book[author/last="Knuth"]/title/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.XML(); got != "The Art of Computer ProgrammingTeX Book" {
		t.Errorf("text XML fallback = %q", got)
	}

	// A FLWOR whose return constructs nothing: its return path per row,
	// in order-by order, planned or navigational.
	for _, s := range []Strategy{StrategyAuto, StrategyNavigational} {
		res, err = e.QueryWith(`for $b in doc("bib.xml")//book where $b/price < 50 order by $b/price return $b/title`, Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		want := `<title>Terrorist Hunter</title><title>TeX Book</title><title>Maximum Security</title>`
		if got := res.XML(); got != want || res.Len() != 3 {
			t.Errorf("%s: FLWOR XML = %q (len %d), want %q", s, got, res.Len(), want)
		}
	}

	// Empty result: still "".
	res, err = e.Query(`//book[author/last="Nobody"]/title`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.XML(); got != "" {
		t.Errorf("empty-result XML = %q, want \"\"", got)
	}
}
