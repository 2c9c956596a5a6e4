package exec

import (
	"math/rand"
	"strings"
	"testing"

	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

// The differential harness: every (document, query) pair is evaluated
// under every join strategy and against the navigational evaluator; all runs must produce
// byte-identical canonical results. Documents are randomized (seeded,
// so failures reproduce) and include recursive shapes, which exercise
// the strategies' soundness preconditions.

// differentialQueries mixes path queries and FLWOR queries over the
// random documents' tag alphabet.
var differentialQueries = []string{
	`//a`,
	`//a//b`,
	`//a/b`,
	`//a[b]//c`,
	`//a[//c]//b`,
	`//a//b//c`,
	`//b[c]`,
	`//b[c]/a`,
	`//a/text()`,
	`//a//text()`,
	`//a[b]/text()`,
	`for $x in doc("d")//a return $x`,
	`for $x in doc("d")//a, $y in doc("d")//b where $x << $y return $y`,
	`for $x in doc("d")//a where exists($x//b) return <r>{ $x }</r>`,
	`for $x in doc("d")//a let $c := $x//b return $x`,
	`for $x in doc("d")//a order by $x/b return $x`,
	`for $x in doc("d")//a order by $x/b ascending return $x`,
	`for $x in doc("d")//a order by $x/b descending return $x`,
	`for $x in doc("d")//a order by $x/b/text() descending return $x`,
	`for $x in doc("d")//a return <r>{ $x/b/text() }</r>`,
	// Attribute-axis value tests (the attributed documents below give
	// these non-trivial selectivity; on attribute-free documents they
	// pin the empty-result path).
	`//a[@id]`,
	`//a[@id="1"]/b`,
	`//a/@id`,
	`//b[@k!="2"]`,
	`for $x in doc("d")//a where $x/@id = "1" return $x`,
	`for $x in doc("d")//a, $y in doc("d")//b where $x/@id = $y/@id return <r>{ $x }</r>`,
	// Core function library: routed through the navigational fallback
	// (path predicates) or residual filters (where-clauses).
	`//a[contains(b, "a")]`,
	`//a[starts-with(@id, "1")]`,
	`//a[count(b) = 1]`,
	`for $x in doc("d")//a where contains($x/b, "b") return $x`,
	`for $x in doc("d")//a where count($x/b) >= 1 return $x`,
	`for $x in doc("d")//a where number($x/@id) < 3 return $x`,
	`for $x in doc("d")//a where string-join($x/b, "-") != "" return $x`,
	// Parent/ancestor axes (rewritten onto /-edges where possible,
	// navigational otherwise).
	`//a/b/..`,
	`//b/parent::a`,
	`//c/ancestor::a`,
	`//a/b/../c`,
	// Positional predicates and positional variables.
	`//a[1]`,
	`//a/b[2]`,
	`//a[2]/b`,
	`for $x at $i in doc("d")//a where $i <= 2 return $x`,
	// Multi-clause iteration over the wider surface.
	`for $x in doc("d")//a let $l := $x/b where exists($l//c) return $l`,
	`for $x in doc("d")//a let $l := $x//b where $l/@id != "1" return <r>{ $x }</r>`,
	// Dependent for-clauses: one twig keeping two variables, and a
	// document variable above the twig.
	`for $x in doc("d")//a, $y in $x//b return <r>{ $x }{ $y }</r>`,
	`for $x in doc("d")//a[c], $y in $x/b return $y`,
	`for $d in doc("d"), $x in $d//b[c] return $x`,
}

// differentialDocs generates the randomized document population: small
// three-tag documents (dense matches, frequent recursion) and larger
// five-tag documents (sparser matches).
func differentialDocs() []*xmltree.Document {
	var docs []*xmltree.Document
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		docs = append(docs, xmlgen.MustRandom(r, xmlgen.RandomSpec{
			Tags: []string{"a", "b", "c"}, MaxNodes: 60, MaxDepth: 6,
		}))
	}
	for seed := int64(101); seed <= 104; seed++ {
		r := rand.New(rand.NewSource(seed))
		docs = append(docs, xmlgen.MustRandom(r, xmlgen.RandomSpec{
			Tags: []string{"a", "b", "c", "d", "e"}, MaxNodes: 150, MaxDepth: 8,
		}))
	}
	// Attributed documents give the @-axis and function queries
	// non-trivial selectivity.
	for seed := int64(201); seed <= 203; seed++ {
		r := rand.New(rand.NewSource(seed))
		docs = append(docs, xmlgen.MustRandom(r, xmlgen.RandomSpec{
			Tags: []string{"a", "b", "c"}, MaxNodes: 80, MaxDepth: 6,
			AttrProb: 50, Attrs: []string{"id", "k"},
		}))
	}
	return docs
}

// strategyVariants lists the evaluation configurations compared against
// the navigational baseline. The pipelined join is only sound on
// non-recursive documents (Theorem 2), so it is gated on the document's
// statistics rather than silently producing wrong answers.
func strategyVariants(recursive bool) []struct {
	name string
	opts plan.Options
} {
	vs := []struct {
		name string
		opts plan.Options
	}{
		{"auto", plan.Options{}},
		{"bounded-nl", plan.Options{Strategy: plan.BoundedNL}},
		{"naive-nl", plan.Options{Strategy: plan.NaiveNL}},
		{"twigstack", plan.Options{Strategy: plan.Twig}},
	}
	if !recursive {
		vs = append(vs, struct {
			name string
			opts plan.Options
		}{"pipelined", plan.Options{Strategy: plan.Pipelined}})
	}
	return vs
}

// canonicalResult is the exported Canonical; the tests predate the
// export and keep the local name.
func canonicalResult(res *Result) string { return Canonical(res) }

// explainTree renders a result's EXPLAIN ANALYZE tree for failure
// reports ("" for navigational results, which have no plan).
func explainTree(res *Result) string {
	if res == nil || res.Plan == nil {
		return "(no plan: navigational evaluation)"
	}
	return res.Plan.ExplainTree(true)
}

// TestDifferentialAllStrategies is the harness itself. It requires at
// least 50 (document, query) pairs and byte-identical canonical results
// from every strategy variant; on disagreement it prints the EXPLAIN
// ANALYZE trees of the disagreeing plans.
func TestDifferentialAllStrategies(t *testing.T) {
	docs := differentialDocs()
	pairs := 0
	for di, doc := range docs {
		stats := xmltree.ComputeStats(doc)
		e := New()
		e.Add("d", doc)
		for _, q := range differentialQueries {
			pairs++
			baseline, err := e.EvalOptions(q, plan.Options{Strategy: plan.Navigational})
			if err != nil {
				t.Fatalf("doc %d (recursive=%v), query %q: navigational baseline: %v", di, stats.Recursive, q, err)
			}
			want := canonicalResult(baseline)

			var reference *Result // first plan-based result, for failure reports
			for _, v := range strategyVariants(stats.Recursive) {
				res, err := e.EvalOptions(q, v.opts)
				if err != nil {
					if v.opts.Strategy == plan.Twig && strings.Contains(err.Error(), "TwigStack") {
						continue // query outside TwigStack's fragment
					}
					t.Errorf("doc %d, query %q, variant %s: %v", di, q, v.name, err)
					continue
				}
				if reference == nil {
					reference = res
				}
				got := canonicalResult(res)
				if got != want {
					t.Errorf("doc %d (recursive=%v), query %q: variant %s disagrees with navigational baseline\n"+
						"--- %s result ---\n%s--- baseline result ---\n%s"+
						"--- EXPLAIN ANALYZE (%s) ---\n%s\n--- EXPLAIN ANALYZE (first agreeing variant) ---\n%s",
						di, stats.Recursive, q, v.name, v.name, got, want,
						v.name, explainTree(res), explainTree(reference))
				}
			}
		}
	}
	if pairs < 50 {
		t.Fatalf("harness covered only %d (document, query) pairs; need >= 50", pairs)
	}
	t.Logf("differential harness: %d (document, query) pairs across %d documents", pairs, len(docs))
}

// TestDifferentialExplainAnalyzeConsistency spot-checks, on one pair per
// strategy, that the EXPLAIN ANALYZE tree is internally consistent: the
// root's emitted count matches the instances or rows delivered, and
// every operator's calls are at least its emissions (one GetNext per
// instance plus the exhausting nil; one per TwigStack row handed over).
func TestDifferentialExplainAnalyzeConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: []string{"a", "b", "c"}, MaxNodes: 80, MaxDepth: 6})
	stats := xmltree.ComputeStats(doc)
	e := New()
	e.Add("d", doc)
	for _, v := range strategyVariants(stats.Recursive) {
		res, err := e.EvalOptions(`//a//b`, v.opts)
		if err != nil {
			t.Fatalf("variant %s: %v", v.name, err)
		}
		st := res.Plan.StatsTree()
		if st == nil {
			t.Fatalf("variant %s: no stats tree", v.name)
		}
		if got := st.Emitted(); got != int64(res.Instances.Len()) {
			t.Errorf("variant %s: root emitted %d, delivered %d instances or rows\n%s",
				v.name, got, res.Instances.Len(), st.Render(true))
		}
		var check func(s *obs.OpStats)
		check = func(s *obs.OpStats) {
			if s.Calls() < s.Emitted() {
				t.Errorf("variant %s: operator %s has %d calls < %d emitted\n%s",
					v.name, s.Name, s.Calls(), s.Emitted(), st.Render(true))
			}
			for _, c := range s.Children {
				check(c)
			}
		}
		check(st)
	}
}
