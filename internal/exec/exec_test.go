package exec

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"blossomtree/internal/naveval"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

const bibXML = `<bib>
<book><title>Maximum Security</title></book>
<book><title>The Art of Computer Programming</title>
<author><last>Knuth</last><first>Donald</first></author></book>
<book><title>Terrorist Hunter</title></book>
<book><title>TeX Book</title>
<author><last>Knuth</last><first>Donald</first></author></book>
</bib>`

const example1 = `<bib>{
for $book1 in doc("bib.xml")//book, $book2 in doc("bib.xml")//book
let $aut1 := $book1/author
let $aut2 := $book2/author
where $book1 << $book2
  and not($book1/title = $book2/title)
  and deep-equal($aut1, $aut2)
return <book-pair>{ $book1/title }{ $book2/title }</book-pair>
}</bib>`

func bibEngine(t *testing.T) *Engine {
	t.Helper()
	doc, err := xmltree.ParseString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Add("bib.xml", doc)
	return e
}

// TestExample1EndToEnd is the paper's flagship example: parse Example 1,
// compile its BlossomTree, plan, execute, and compare the constructed
// XML against the output of Example 2.
func TestExample1EndToEnd(t *testing.T) {
	for _, strat := range []plan.Strategy{plan.Auto, plan.Navigational} {
		t.Run(strat.String(), func(t *testing.T) {
			e := bibEngine(t)
			res, err := e.EvalOptions(example1, plan.Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Envs) != 2 {
				t.Fatalf("book pairs = %d, want 2", len(res.Envs))
			}
			if res.Output == nil {
				t.Fatal("no output document")
			}
			got := xmltree.Serialize(res.Output.Root, xmltree.WriteOptions{})
			want := `<bib><book-pair><title>Maximum Security</title><title>Terrorist Hunter</title></book-pair>` +
				`<book-pair><title>The Art of Computer Programming</title><title>TeX Book</title></book-pair></bib>`
			if got != want {
				t.Errorf("output:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestPathQueriesAllStrategies(t *testing.T) {
	e := bibEngine(t)
	doc, _ := e.resolve("bib.xml")
	queries := []string{
		`doc("bib.xml")//book/title`,
		`//book[author]/title`,
		`//book[author/last="Knuth"]`,
		`//book//last`,
		`/bib/book/author`,
		`//author[last][first]`,
		`//book[2]`,
	}
	strategies := []plan.Strategy{plan.Pipelined, plan.BoundedNL, plan.Twig, plan.Navigational}
	for _, q := range queries {
		want, err := naveval.EvalPath(doc, xpath.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strategies {
			t.Run(q+"/"+s.String(), func(t *testing.T) {
				if s == plan.Twig && strings.Contains(q, "[2]") {
					t.Skip("TwigStack does not support positional predicates")
				}
				res, err := e.EvalOptions(q, plan.Options{Strategy: s})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Nodes) != len(want) {
					t.Fatalf("%s via %s: %d nodes, want %d", q, s, len(res.Nodes), len(want))
				}
				for i := range want {
					if res.Nodes[i] != want[i] {
						t.Fatalf("%s via %s: node %d differs", q, s, i)
					}
				}
			})
		}
	}
}

func TestFLWORWithValueConstraint(t *testing.T) {
	e := bibEngine(t)
	res, err := e.Eval(`for $b in doc("bib.xml")//book where $b/title = "TeX Book" return $b/author/last`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Envs) != 1 {
		t.Fatalf("envs = %d, want 1", len(res.Envs))
	}
	if len(res.Envs[0]["b"]) != 1 {
		t.Error("for-var binding not singleton")
	}
}

func TestFLWORResidualOr(t *testing.T) {
	e := bibEngine(t)
	res, err := e.Eval(`for $b in doc("bib.xml")//book where $b/title = "TeX Book" or $b/title = "Terrorist Hunter" return $b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Envs) != 2 {
		t.Fatalf("envs = %d, want 2 (residual or-condition)", len(res.Envs))
	}
}

func TestFLWOROrderBy(t *testing.T) {
	e := bibEngine(t)
	res, err := e.Eval(`for $b in doc("bib.xml")//book order by $b/title return <t>{ $b/title }</t>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Envs) != 4 {
		t.Fatalf("envs = %d", len(res.Envs))
	}
	out := xmltree.Serialize(res.Output.Root, xmltree.WriteOptions{})
	if !strings.Contains(out, "<results>") {
		t.Errorf("bare FLWOR output should be wrapped: %s", out)
	}
	first := strings.Index(out, "Maximum Security")
	second := strings.Index(out, "TeX Book")
	third := strings.Index(out, "Terrorist Hunter")
	fourth := strings.Index(out, "The Art")
	if !(first < second && second < third && third < fourth) {
		t.Errorf("order by violated: %s", out)
	}
}

func TestFLWORIterationOrder(t *testing.T) {
	e := bibEngine(t)
	res, err := e.Eval(`for $b in doc("bib.xml")//book return $b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Envs) != 4 {
		t.Fatalf("envs = %d", len(res.Envs))
	}
	for i := 1; i < len(res.Envs); i++ {
		if !res.Envs[i-1]["b"][0].Before(res.Envs[i]["b"][0]) {
			t.Error("iteration order is not document order")
		}
	}
	if res.Output != nil {
		t.Error("pathless return should not construct a document")
	}
}

func TestLetBindingsGrouped(t *testing.T) {
	e := bibEngine(t)
	res, err := e.Eval(`for $b in doc("bib.xml")//book let $ls := $b//last return $b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Envs) != 4 {
		t.Fatalf("envs = %d", len(res.Envs))
	}
	counts := 0
	for _, env := range res.Envs {
		counts += len(env["ls"])
	}
	if counts != 2 {
		t.Errorf("total let-bound last elements = %d, want 2", counts)
	}
}

func TestEngineErrors(t *testing.T) {
	e := New()
	if _, err := e.Eval(`//book`); err == nil {
		t.Error("query without documents should fail")
	}
	e = bibEngine(t)
	if _, err := e.Eval(`for $b in`); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := e.Eval(`for $b in doc("d")//book return <r>{ for $c in doc("d")//x return $c }</r>`); err == nil {
		t.Error("nested FLWOR should be rejected")
	}
	// Multi-document correlation is out of fragment.
	doc2, _ := xmltree.ParseString(`<other/>`)
	e.Add("other.xml", doc2)
	if _, err := e.Eval(`for $a in doc("bib.xml")//book, $b in doc("other.xml")//x return $a`); err == nil {
		t.Error("cross-document query should be rejected")
	}
}

func TestExplain(t *testing.T) {
	e := bibEngine(t)
	s, err := e.Explain(`//book[author]//last`, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"plan strategy", "NoK"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, s)
		}
	}
}

func TestEvalWithoutIndexes(t *testing.T) {
	doc, _ := xmltree.ParseString(bibXML)
	e := NewWithConfig(Config{BuildIndexes: false})
	e.Add("bib.xml", doc)
	res, err := e.Eval(`//book[author]/title`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Errorf("nodes = %d", len(res.Nodes))
	}
	if _, err := e.EvalOptions(`//book/title`, plan.Options{Strategy: plan.Twig}); err == nil {
		t.Error("forced TwigStack without index should fail")
	}
}

func TestMergedScansOption(t *testing.T) {
	doc, _ := xmltree.ParseString(bibXML)
	e := NewWithConfig(Config{BuildIndexes: false})
	e.Add("bib.xml", doc)
	res, err := e.EvalOptions(`//book[author]//last`, plan.Options{Strategy: plan.Pipelined, MergeScans: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Errorf("merged-scan result = %d nodes", len(res.Nodes))
	}
	if !strings.Contains(res.Plan.Explain(), "merged") {
		t.Error("plan should report merged scans")
	}
}

// TestQuickEngineEqualsOracle: random documents × the query shapes of
// Table 2, across every strategy, against the navigational oracle.
func TestQuickEngineEqualsOracle(t *testing.T) {
	queries := []string{
		`//a//b`,
		`//a//b//c`,
		`//a[//b][//c]`,
		`//a/b[//c]`,
		`//a[//b]//c`,
		`//a[b]//c`,
		`//a//b[c]`,
		`/a//b`,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: []string{"a", "b", "c", "d"}, MaxNodes: 60, MaxDepth: 8, TextProb: -1})
		recursive := xmltree.ComputeStats(doc).Recursive
		q := queries[r.Intn(len(queries))]
		want, err := naveval.EvalPath(doc, xpath.MustParse(q))
		if err != nil {
			return false
		}
		e := New()
		e.Add("doc.xml", doc)
		strategies := []plan.Strategy{plan.Auto, plan.BoundedNL, plan.Twig}
		if !recursive {
			strategies = append(strategies, plan.Pipelined)
		}
		for _, s := range strategies {
			res, err := e.EvalOptions(q, plan.Options{Strategy: s})
			if err != nil {
				t.Logf("seed %d: %s via %s: %v", seed, q, s, err)
				return false
			}
			if len(res.Nodes) != len(want) {
				t.Logf("seed %d: %s via %s: %d nodes, want %d\ndoc: %s", seed, q, s,
					len(res.Nodes), len(want), xmltree.Serialize(doc.Root, xmltree.WriteOptions{}))
				return false
			}
			for i := range want {
				if res.Nodes[i] != want[i] {
					t.Logf("seed %d: %s via %s: node %d differs", seed, q, s, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickFLWOREqualsNavigational: random FLWOR queries with structural
// and value correlations agree with the naive evaluator.
func TestQuickFLWOREqualsNavigational(t *testing.T) {
	queries := []string{
		`for $x in doc("d")//a, $y in doc("d")//b where $x << $y return $x`,
		`for $x in doc("d")//a, $y in doc("d")//b where deep-equal($x, $y) return $x`,
		`for $x in doc("d")//a let $c := $x/b return $x`,
		`for $x in doc("d")//a let $c := $x//b return $x`,
		`for $x in doc("d")//a where exists($x/b) return $x`,
		`for $x in doc("d")//a where exists($x//c) return $x`,
		`for $x in doc("d")//a, $y in doc("d")//c where $x/b = $y/b return $y`,
		`for $x in doc("d")//a, $y in doc("d")//a where $x >> $y return $x`,
		`for $x in doc("d")//b let $c := $x//a where exists($x/c) return $x`,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: []string{"a", "b", "c"}, MaxNodes: 40, MaxDepth: 6})
		q := queries[r.Intn(len(queries))]
		e := New()
		e.Add("d", doc)
		alg, err := e.Eval(q)
		if err != nil {
			t.Logf("seed %d: %s: %v", seed, q, err)
			return false
		}
		nav, err := e.EvalOptions(q, plan.Options{Strategy: plan.Navigational})
		if err != nil {
			t.Logf("seed %d: nav %s: %v", seed, q, err)
			return false
		}
		if len(alg.Envs) != len(nav.Envs) {
			t.Logf("seed %d: %s: %d rows vs nav %d", seed, q, len(alg.Envs), len(nav.Envs))
			return false
		}
		for i := range alg.Envs {
			for v, ns := range nav.Envs[i] {
				gs := alg.Envs[i][v]
				if len(gs) != len(ns) {
					t.Logf("seed %d: %s row %d var $%s: %d vs %d", seed, q, i, v, len(gs), len(ns))
					return false
				}
				for k := range ns {
					if gs[k] != ns[k] {
						t.Logf("seed %d: %s row %d var $%s node %d differs", seed, q, i, v, k)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDocumentLookup(t *testing.T) {
	e := bibEngine(t)
	if d, ok := e.Document("bib.xml"); !ok || d == nil {
		t.Error("Document(bib.xml) failed")
	}
	if d, ok := e.Document("unknown"); !ok || d == nil {
		t.Error("unknown URI should fall back to the first document")
	}
	empty := New()
	if _, ok := empty.Document("x"); ok {
		t.Error("empty engine should resolve nothing")
	}
}

func TestConstructSequenceReturn(t *testing.T) {
	e := bibEngine(t)
	res, err := e.Eval(`for $b in doc("bib.xml")//book[author]
		return <entry>{ $b/title, $b/author/last }</entry>`)
	if err != nil {
		t.Fatal(err)
	}
	out := xmltree.Serialize(res.Output.Root, xmltree.WriteOptions{})
	if strings.Count(out, "<entry>") != 2 || strings.Count(out, "<last>") != 2 {
		t.Errorf("sequence construction output: %s", out)
	}
}

func TestConstructNestedCtors(t *testing.T) {
	e := bibEngine(t)
	res, err := e.Eval(`<lib>{ for $b in doc("bib.xml")//book[author]
		return <item><t>{ $b/title }</t><a>{ $b/author }</a></item> }</lib>`)
	if err != nil {
		t.Fatal(err)
	}
	out := xmltree.Serialize(res.Output.Root, xmltree.WriteOptions{})
	for _, frag := range []string{"<lib>", "<item>", "<t>", "<a>", "<author>"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in %s", frag, out)
		}
	}
}

// TestCostBasedStrategyEndToEnd: Auto is the cost model. The plan runs
// the strategy heading the model's table, and EXPLAIN names it as the
// winner.
func TestCostBasedStrategyEndToEnd(t *testing.T) {
	e := bibEngine(t)
	res, err := e.EvalOptions(`//book[author]/title`, plan.Options{Strategy: plan.Auto})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Errorf("auto nodes = %d", len(res.Nodes))
	}
	if best := res.Plan.EstimateCosts()[0].Strategy; res.Plan.Strategy != best {
		t.Errorf("auto ran %s, the model's cheapest is %s\n%s", res.Plan.Strategy, best, res.Plan.ExplainCosts())
	}
	if want := "cost model: " + res.Plan.Strategy.String() + " wins"; !strings.Contains(res.Plan.Explain(), want) {
		t.Errorf("EXPLAIN lacks %q:\n%s", want, res.Plan.Explain())
	}
}

func TestNavigationalPathWithAbsoluteSource(t *testing.T) {
	e := bibEngine(t)
	res, err := e.EvalOptions(`/bib/book/title`, plan.Options{Strategy: plan.Navigational})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 4 {
		t.Errorf("nodes = %d", len(res.Nodes))
	}
}
