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
				if len(res.Nodes) == 0 && len(res.Envs()) == 0 {
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

// outcome is one evaluation of evalConcurrently.
type outcome struct {
	res *Result
	err error
}

// evalConcurrently evaluates every query on its own goroutine, all
// sharing opts, and returns their outcomes in input order.
func evalConcurrently(e *Engine, srcs []string, opts plan.Options) []outcome {
	out := make([]outcome, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].res, out[i].err = e.EvalOptions(src, opts)
		}()
	}
	wg.Wait()
	return out
}

// TestEvalBatchMatchesSerial: queries evaluated concurrently on one
// engine each agree with their serial evaluation, and a parse error
// stays with its own query.
func TestEvalBatchMatchesSerial(t *testing.T) {
	e := bibEngine(t)
	queries := []string{
		`doc("bib.xml")//book/title`,
		`//book[author]/title`,
		`//book//last`,
		`for $b in doc("bib.xml")//book return $b`,
		`this is not a query`,
	}
	batch := evalConcurrently(e, queries, plan.Options{})
	for i, q := range queries {
		res, err := e.Eval(q)
		if (err == nil) != (batch[i].err == nil) {
			t.Fatalf("query %q: serial err=%v concurrent err=%v", q, err, batch[i].err)
		}
		if err == nil && canonicalResult(res) != canonicalResult(batch[i].res) {
			t.Errorf("query %q: concurrent result diverges\n%s\nvs serial\n%s",
				q, canonicalResult(batch[i].res), canonicalResult(res))
		}
	}
}

// TestEvalAllDocs: the fan-out pins each document in turn and gathers
// their answers in URI order under one record whose children are the
// per-document records.
func TestEvalAllDocs(t *testing.T) {
	e := bibEngine(t)
	d2, _ := xmltree.ParseString(`<bib><book><title>A</title></book></bib>`)
	e.Add("two.xml", d2)
	d3, _ := xmltree.ParseString(`<bib><magazine/></bib>`)
	e.Add("three.xml", d3)

	res, err := e.EvalAllDocs(`doc("ignored.xml")//book/title`, plan.Options{QueryID: "fan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 5 || xmltree.StringValue(res.Nodes[4]) != "A" {
		t.Fatalf("gathered %d titles, want bib.xml's 4 then two.xml's A", len(res.Nodes))
	}
	if res.QueryID != "fan" || res.Strategy != "scatter" {
		t.Errorf("record %s/%s, want fan/scatter", res.QueryID, res.Strategy)
	}
	want := []struct {
		id   string
		rows int64
	}{{"fan-bib.xml", 4}, {"fan-three.xml", 0}, {"fan-two.xml", 1}}
	if len(res.Children) != len(want) {
		t.Fatalf("children = %d, want %d", len(res.Children), len(want))
	}
	for i, w := range want {
		if c := res.Children[i]; c.QueryID != w.id || c.RowsOut != w.rows || c.Verdict != "ok" {
			t.Errorf("child %d = %s (%d rows, %s), want %s (%d rows, ok)", i, c.QueryID, c.RowsOut, c.Verdict, w.id, w.rows)
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
		out := res.Output.Serialize(xmltree.WriteOptions{})
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
	out := res.Output.Serialize(xmltree.WriteOptions{})
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

// TestPlanCacheConcurrentCrossingRuns runs cached templates whose
// crossings project into per-run buffers (a crossing pushed into a
// for-clause join, a crossing filter) and a limited positional scan
// from several goroutines at once: every run builds its own operators,
// so under the race detector no two runs share a buffer, and each
// answers as a serial run does.
func TestPlanCacheConcurrentCrossingRuns(t *testing.T) {
	e := bibEngine(t)
	queries := []string{
		`for $p in doc("bib.xml")//book, $q in doc("bib.xml")//book where $p/title < $q/title return <r>{ $p/title }{ $q/title }</r>`,
		`for $b in doc("bib.xml")//book where $b/title << $b/author return <r>{ $b/title }</r>`,
		`for $b at $i in doc("bib.xml")//book where $i < 3 return <r>{ $i }{ $b/title }</r>`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := e.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan == nil {
			t.Fatalf("%s: not planned (%s)", q, res.NavReason)
		}
		want[i] = Canonical(res)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for i, q := range queries {
					res, err := e.Eval(q)
					if err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
					if got := Canonical(res); got != want[i] {
						t.Errorf("%s: concurrent run differs from the serial one:\n%s\nwant:\n%s", q, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
