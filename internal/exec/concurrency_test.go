package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"blossomtree/internal/naveval"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

// TestConcurrentAddEval mixes writers registering documents with
// readers evaluating planned and navigational queries on one shared
// engine. Run under -race it fails on the pre-snapshot engine (bare
// map writes in Add racing Eval's map reads) and must pass now.
func TestConcurrentAddEval(t *testing.T) {
	doc, err := xmltree.ParseString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Add("bib.xml", doc)

	const writers, readers, iters = 4, 8, 25
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, writers+readers)

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				d, err := xmltree.ParseString(bibXML)
				if err != nil {
					errs <- err
					return
				}
				e.Add(fmt.Sprintf("doc-%d-%d.xml", g, i), d)
			}
		}(g)
	}
	queries := []string{
		`doc("bib.xml")//book/title`,
		`//book[author/last="Knuth"]`,
		`for $b in doc("bib.xml")//book where $b/author return <k>{ $b/title }</k>`,
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				src := queries[(g+i)%len(queries)]
				strat := plan.Auto
				if (g+i)%4 == 0 {
					strat = plan.Navigational
				}
				res, err := e.EvalOptions(src, plan.Options{Strategy: strat})
				if err != nil {
					errs <- fmt.Errorf("eval %q: %w", src, err)
					return
				}
				if len(res.Nodes) == 0 && len(res.Envs) == 0 {
					errs <- fmt.Errorf("eval %q: empty result", src)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(e.snapshot().docs); n != 1+writers*iters {
		t.Errorf("documents registered = %d, want %d", n, 1+writers*iters)
	}
}

// TestEvalConsistentSnapshot checks that one evaluation cannot observe
// a half-registered catalog: the snapshot captured at Eval time serves
// resolve, planning and construction alike.
func TestEvalConsistentSnapshot(t *testing.T) {
	e := bibEngine(t)
	d2, _ := xmltree.ParseString(`<other><x/></other>`)
	e.Add("other.xml", d2)
	snapBefore := e.snapshot()
	d3, _ := xmltree.ParseString(`<third><y/></third>`)
	e.Add("third.xml", d3)
	if e.snapshot() == snapBefore {
		t.Fatal("Add did not install a new snapshot")
	}
	if _, err := snapBefore.resolve("third.xml"); err == nil {
		t.Error("old snapshot should not see the new document")
	}
	if _, err := e.snapshot().resolve("third.xml"); err != nil {
		t.Errorf("new snapshot should see the new document: %v", err)
	}
}

func TestEvalBatchMatchesSerial(t *testing.T) {
	e := bibEngine(t)
	queries := []string{
		`doc("bib.xml")//book/title`,
		`//book[author]/title`,
		`//book//last`,
		`for $b in doc("bib.xml")//book return $b`,
		`this is not a query`,
	}
	batch := e.EvalBatch(queries, plan.Options{}, 4)
	if len(batch) != len(queries) {
		t.Fatalf("batch results = %d, want %d", len(batch), len(queries))
	}
	for i, q := range queries {
		res, err := e.Eval(q)
		if (err == nil) != (batch[i].Err == nil) {
			t.Fatalf("query %q: serial err=%v batch err=%v", q, err, batch[i].Err)
		}
		if err != nil {
			continue
		}
		if len(res.Nodes) != len(batch[i].Result.Nodes) || len(res.Envs) != len(batch[i].Result.Envs) {
			t.Errorf("query %q: serial (%d nodes, %d envs) != batch (%d nodes, %d envs)",
				q, len(res.Nodes), len(res.Envs), len(batch[i].Result.Nodes), len(batch[i].Result.Envs))
		}
	}
	if got := e.EvalBatch(nil, plan.Options{}, 4); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

func TestEvalAllDocs(t *testing.T) {
	e := bibEngine(t)
	d2, _ := xmltree.ParseString(`<bib><book><title>A</title></book></bib>`)
	e.Add("two.xml", d2)
	d3, _ := xmltree.ParseString(`<bib><magazine/></bib>`)
	e.Add("three.xml", d3)

	results, _, err := e.EvalAllDocs(`doc("ignored.xml")//book/title`, plan.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"bib.xml": 4, "three.xml": 0, "two.xml": 1}
	if len(results) != len(want) {
		t.Fatalf("results = %d, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("doc %s: %v", r.URI, r.Err)
		}
		if len(r.Result.Nodes) != want[r.URI] {
			t.Errorf("doc %s: %d titles, want %d", r.URI, len(r.Result.Nodes), want[r.URI])
		}
		if i > 0 && results[i-1].URI > r.URI {
			t.Error("results not sorted by URI")
		}
	}
}

func TestResolveUnknownURIMultiDoc(t *testing.T) {
	e := bibEngine(t)
	// Single document: any URI falls back to it.
	if _, err := e.resolve("unknown.xml"); err != nil {
		t.Errorf("single-document fallback broken: %v", err)
	}
	if _, err := e.Eval(`doc("unknown.xml")//book`); err != nil {
		t.Errorf("single-document query via unknown URI should work: %v", err)
	}

	d2, _ := xmltree.ParseString(`<other/>`)
	e.Add("other.xml", d2)
	// Known URIs and absolute paths still resolve.
	if d, err := e.resolve("other.xml"); err != nil || d == nil {
		t.Errorf("known URI failed: %v", err)
	}
	if d, err := e.resolve(""); err != nil || d == nil {
		t.Errorf("absolute-path resolution failed: %v", err)
	}
	// Unknown URIs no longer silently alias the first document.
	if _, err := e.resolve("unknown.xml"); err == nil {
		t.Error("unknown URI with multiple documents should error")
	}
	if _, err := e.Eval(`doc("unknown.xml")//book`); err == nil {
		t.Error("query naming an unknown URI with multiple documents should error")
	}
	for _, strat := range []plan.Strategy{plan.Auto, plan.Navigational} {
		if _, err := e.EvalOptions(`doc("bib.xml")//book`, plan.Options{Strategy: strat}); err != nil {
			t.Errorf("%s: known URI query failed: %v", strat, err)
		}
	}
}

func TestOrderByNumericKeys(t *testing.T) {
	e := New()
	doc, err := xmltree.ParseString(`<items>
<item><price>10</price><name>ten</name></item>
<item><price>9</price><name>nine</name></item>
<item><price>100</price><name>hundred</name></item>
<item><price>2</price><name>two</name></item>
</items>`)
	if err != nil {
		t.Fatal(err)
	}
	e.Add("items.xml", doc)
	for _, strat := range []plan.Strategy{plan.Auto, plan.Navigational} {
		res, err := e.EvalOptions(`for $i in doc("items.xml")//item order by $i/price return <n>{ $i/name }</n>`, plan.Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		out := xmltree.Serialize(res.Output.Root, xmltree.WriteOptions{})
		wantOrder := []string{"two", "nine", "ten", "hundred"}
		last := -1
		for _, w := range wantOrder {
			pos := strings.Index(out, w)
			if pos < 0 || pos < last {
				t.Fatalf("%s: numeric order violated, want %v in order: %s", strat, wantOrder, out)
			}
			last = pos
		}
	}
}

func TestOrderByStringKeysStillLexicographic(t *testing.T) {
	e := New()
	doc, err := xmltree.ParseString(`<items>
<item><k>banana</k></item>
<item><k>10a</k></item>
<item><k>apple</k></item>
</items>`)
	if err != nil {
		t.Fatal(err)
	}
	e.Add("items.xml", doc)
	res, err := e.Eval(`for $i in doc("items.xml")//item order by $i/k return <o>{ $i/k }</o>`)
	if err != nil {
		t.Fatal(err)
	}
	out := xmltree.Serialize(res.Output.Root, xmltree.WriteOptions{})
	wantOrder := []string{"10a", "apple", "banana"}
	last := -1
	for _, w := range wantOrder {
		pos := strings.Index(out, w)
		if pos < 0 || pos < last {
			t.Fatalf("lexicographic order violated, want %v in order: %s", wantOrder, out)
		}
		last = pos
	}
}

func TestOrderKeyLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"9", "10", true},
		{"10", "9", false},
		{"2", "2", false},
		{"1.5", "1.25", false},
		{"-3", "2", true},
		{"apple", "banana", true},
		{"10", "apple", true},
		{"", "0", true},
	}
	for _, c := range cases {
		if got := naveval.OrderKeyLess(c.a, c.b); got != c.want {
			t.Errorf("OrderKeyLess(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestDedupEnvsDocumentIdentity regression-tests the dedup key: two
// bindings from different documents share region labels (both docs
// parse the same XML, so every Start offset coincides) and must not
// collapse into one row.
func TestDedupEnvsDocumentIdentity(t *testing.T) {
	const xml = `<bib><book><title>A</title></book></bib>`
	docA, _ := xmltree.ParseString(xml)
	docB, _ := xmltree.ParseString(xml)
	bookA := docA.DocumentElement().FirstChild
	bookB := docB.DocumentElement().FirstChild
	if bookA.Start != bookB.Start {
		t.Fatal("test setup: region labels should coincide")
	}
	envs := []naveval.Env{
		{"b": []*xmltree.Node{bookA}},
		{"b": []*xmltree.Node{bookB}},
		{"b": []*xmltree.Node{bookA}}, // genuine duplicate
	}
	got := dedupEnvs(envs, []string{"b"})
	if len(got) != 2 {
		t.Fatalf("dedupEnvs kept %d rows, want 2 (distinct docs) — equal labels collided", len(got))
	}
	if got[0]["b"][0] != bookA || got[1]["b"][0] != bookB {
		t.Error("dedupEnvs kept the wrong rows")
	}
}
