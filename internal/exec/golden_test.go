package exec

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// Executor-level EXPLAIN goldens: unlike the plan-package goldens,
// these run through the engine (snapshot catalog, plan cache, text()
// peeling, FLWOR order-by), pinning the renderings the plan package
// cannot express — order-by modifiers, text() tails stripped from the
// pattern, and the cache-hit header a warm evaluation carries.
func TestEngineExplainGolden(t *testing.T) {
	cases := []struct {
		name  string
		query string
		opts  plan.Options
		// warm evaluates the query twice and renders the second (cached)
		// plan's EXPLAIN instead of the engine's uncached Explain.
		warm bool
	}{
		{name: "order_by_descending", query: `for $b in doc("bib.xml")//book order by $b/title descending return $b`},
		{name: "order_by_ascending", query: `for $b in doc("bib.xml")//book order by $b/title ascending return $b`},
		{name: "text_tail_path", query: `//book/title/text()`},
		{name: "text_tail_descendant", query: `//book//text()`, opts: plan.Options{Strategy: plan.BoundedNL}},
		// The warm run is the first cache hit after a run that saw 2 of
		// the 4 books it estimated: it executes the replanned template,
		// hint note and cost table included.
		{name: "plan_cache_hit", query: `//book[author]/title`, warm: true},
		// New query surface: function predicates, a positional variable
		// beside a second for-clause and non-rewritable upward axes run
		// through the navigational fallback; its EXPLAIN names the
		// routing reason.
		{name: "nav_fallback_contains", query: `//book[contains(title, "Art")]`},
		{name: "nav_fallback_positional_var", query: `for $b at $i in doc("bib.xml")//book, $a in $b/author where $i < 2 return $a`},
		{name: "nav_fallback_ancestor", query: `//last/ancestor::book`},
		// Rewritable parent steps, attribute constraints and positional
		// predicates stay planned.
		{name: "parent_rewrite", query: `//book/title/..`},
		{name: "position_filter", query: `//book[2]`},
		{name: "residual_function_where", query: `for $b in doc("bib.xml")//book where count($b/author) = 1 return $b`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := bibEngine(t)
			var got string
			if tc.warm {
				if _, err := e.EvalOptions(tc.query, tc.opts); err != nil {
					t.Fatal(err)
				}
				res, err := e.EvalOptions(tc.query, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Cached {
					t.Fatal("second evaluation did not hit the plan cache")
				}
				got = res.Plan.Explain()
			} else {
				s, err := e.Explain(tc.query, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				got = s
			}

			checkGolden(t, tc.name, got)
		})
	}
}

// TestEngineResultGolden pins canonical answers every strategy must
// agree on, including the navigational oracle: a wrong answer they all
// share, or one only the planner's pick gives, shows as drift. The file
// also names the strategy Auto chose.
func TestEngineResultGolden(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b/><a><b/><c/></a><c/></a><a><c/></a><b><a><b><c/></b></a></b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Add("d", doc)
	cases := []struct{ name, query string }{
		// Auto plans TwigStack, whose twig starts below $d's vertex.
		{name: "doc_var_twig", query: `for $d in doc("d"), $a in $d//a return $d`},
		// A document node in element content is replaced by its children
		// (XQuery 1.0 §3.7.1.3).
		{name: "doc_node_content", query: `for $d in doc("d") return <x>{ $d }</x>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			auto, err := e.Eval(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			got := Canonical(auto)
			variants := append(strategyVariants(true), struct {
				name string
				opts plan.Options
			}{"navigational", plan.Options{Strategy: plan.Navigational}})
			for _, v := range variants {
				res, err := e.EvalOptions(tc.query, v.opts)
				if err != nil {
					if v.opts.Strategy == plan.Twig && strings.Contains(err.Error(), "TwigStack") {
						continue
					}
					t.Fatalf("%s: %v", v.name, err)
				}
				if s := Canonical(res); s != got {
					t.Errorf("%s disagrees with auto:\n%s--- auto ---\n%s", v.name, s, got)
				}
			}
			checkGolden(t, tc.name, auto.Plan.ExplainTree(false)+got)
		})
	}
}

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/exec -run Golden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
