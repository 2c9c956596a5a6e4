package exec

import (
	"strings"
	"testing"

	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

const navFallbackDoc = `<lib>
  <shelf id="s1">
    <book year="1994"><title>Maximum Security</title><author><last>Anon</last></author></book>
    <book year="2003"><title>TeX Book</title><author><last>Knuth</last></author></book>
    <book><title>Untitled</title></book>
  </shelf>
  <shelf id="s2">
    <book year="1984"><title>Art</title></book>
  </shelf>
</lib>`

func navFallbackEngine(t *testing.T) *Engine {
	t.Helper()
	doc, err := xmltree.Parse(strings.NewReader(navFallbackDoc))
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Add("d", doc)
	return e
}

// navFallbackQueries lists queries that parse but lie outside the
// BlossomTree fragment, one per fallback route: function predicates,
// non-rewritable parent/ancestor steps, a positional variable beside a
// second for-clause, and positional predicates under nested //-cuts.
var navFallbackQueries = []string{
	`//book[contains(title, "Book")]`,
	`//book[count(author) = 1]`,
	`//title/parent::book`,
	`//last/ancestor::shelf`,
	`for $b at $i in doc("d")//book, $t in $b/title where $i < 3 return $t`,
	`//shelf//book[1]//last`,
}

// TestNavFallbackEvalAndCache checks that each fragment-outside query
// evaluates through the navigational fallback, matches a forced
// navigational run, and reports a plan-cache hit on the second
// evaluation.
func TestNavFallbackEvalAndCache(t *testing.T) {
	for _, q := range navFallbackQueries {
		e := navFallbackEngine(t)
		oracle, err := e.EvalOptions(q, plan.Options{Strategy: plan.Navigational})
		if err != nil {
			t.Fatalf("%q: navigational oracle: %v", q, err)
		}
		cold, err := e.Eval(q)
		if err != nil {
			t.Fatalf("%q: cold fallback eval: %v", q, err)
		}
		if cold.Plan != nil {
			t.Errorf("%q: expected navigational fallback, got a plan", q)
		}
		if cold.Cached {
			t.Errorf("%q: cold evaluation reported a cache hit", q)
		}
		if got, want := Canonical(cold), Canonical(oracle); got != want {
			t.Errorf("%q: fallback result differs from navigational oracle\ngot:\n%s\nwant:\n%s", q, got, want)
		}
		warm, err := e.Eval(q)
		if err != nil {
			t.Fatalf("%q: warm fallback eval: %v", q, err)
		}
		if !warm.Cached {
			t.Errorf("%q: warm evaluation missed the plan cache", q)
		}
		if Canonical(warm) != Canonical(cold) {
			t.Errorf("%q: warm result differs from cold result", q)
		}
	}
}

// TestNavFallbackExplain checks that EXPLAIN surfaces the fallback
// strategy and its reason instead of erroring.
func TestNavFallbackExplain(t *testing.T) {
	e := navFallbackEngine(t)
	for _, q := range navFallbackQueries {
		out, err := e.Explain(q, plan.Options{})
		if err != nil {
			t.Fatalf("%q: explain: %v", q, err)
		}
		if !strings.HasPrefix(out, "plan strategy: XH\n") {
			t.Errorf("%q: explain should lead with the XH strategy:\n%s", q, out)
		}
		if !strings.Contains(out, "navigational fallback: ") ||
			!strings.Contains(out, "outside the BlossomTree fragment") {
			t.Errorf("%q: explain should state the fallback reason:\n%s", q, out)
		}
	}
}

// TestNavFallbackExplainAnalyze checks the analyze variant also runs the
// query and reports the row count.
func TestNavFallbackExplainAnalyze(t *testing.T) {
	e := navFallbackEngine(t)
	out, err := e.Explain(`//book[contains(title, "Book")]`, plan.Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "navigational fallback") || !strings.Contains(out, "rows: 1") {
		t.Errorf("explain analyze output:\n%s", out)
	}
}

// TestResidualFunctionConditions checks the complementary route:
// function calls in where-conditions stay on the planned path (the
// pattern tree runs as usual) and evaluate as residual conditions, so
// they do NOT fall back — and still agree with the oracle.
func TestResidualFunctionConditions(t *testing.T) {
	queries := []string{
		`for $b in doc("d")//book where string-join($b/title, "|") = "Untitled" return $b`,
		`for $b in doc("d")//book where contains($b/title, "Book") return $b`,
		`for $b in doc("d")//book where count($b/author) = 1 return $b/title`,
		`for $b in doc("d")//book where number($b/@year) > 1990 return $b`,
	}
	e := navFallbackEngine(t)
	for _, q := range queries {
		oracle, err := e.EvalOptions(q, plan.Options{Strategy: plan.Navigational})
		if err != nil {
			t.Fatalf("%q: navigational oracle: %v", q, err)
		}
		res, err := e.Eval(q)
		if err != nil {
			t.Fatalf("%q: planned eval: %v", q, err)
		}
		if res.Plan == nil {
			t.Errorf("%q: function where-conditions should stay planned (residual), not fall back", q)
		}
		if got, want := Canonical(res), Canonical(oracle); got != want {
			t.Errorf("%q: planned+residual result differs from oracle\ngot:\n%s\nwant:\n%s", q, got, want)
		}
	}
}

// TestNestedPositionalFallsBack is the regression test for the planner
// bug where a positional predicate under a nested //-cut returned a
// runtime error: it now routes to the navigational fallback and agrees
// with the oracle.
func TestNestedPositionalFallsBack(t *testing.T) {
	doc, err := xmltree.Parse(strings.NewReader(
		`<r><a><b><c/><b><c/></b></b><b><c/></b></a><a><b/></a></r>`))
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Add("d", doc)
	q := `//a//b[2]//c`
	oracle, err := e.EvalOptions(q, plan.Options{Strategy: plan.Navigational})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.EvalOptions(q, plan.Options{Strategy: plan.BoundedNL})
	if err != nil {
		t.Fatalf("nested positional should fall back, not error: %v", err)
	}
	if res.Plan != nil {
		t.Error("expected navigational fallback, got a plan")
	}
	if Canonical(res) != Canonical(oracle) {
		t.Errorf("fallback disagrees with oracle\ngot:\n%s\nwant:\n%s", Canonical(res), Canonical(oracle))
	}
}
