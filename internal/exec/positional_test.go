package exec

import (
	"strings"
	"testing"

	"blossomtree/internal/plan"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

// positionalEngine registers small d1 (recursive: its a elements nest)
// and d2 (flat: 530 addresses, 270 of them with a zip_code) documents.
func positionalEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	for _, id := range []string{"d1", "d2"} {
		doc, err := xmlgen.Generate(id, xmlgen.Config{Seed: 1, TargetNodes: 2000})
		if err != nil {
			t.Fatal(err)
		}
		e.Add(id, doc)
	}
	return e
}

// f6 is the benchmark's F6 shape.
const f6 = `for $a at $i in doc("d2")//address where $i < 100 return <n>{ $a/zip_code }</n>`

// positionalQueries are FLWORs whose one for-clause has a positional
// variable; every one plans.
var positionalQueries = []struct{ name, query string }{
	{"F6", f6},
	// The where-clause filters the numbered rows: a zip-less address
	// still takes its ordinal.
	{"narrowing-trap", `for $a at $i in doc("d2")//address where exists($a/zip_code) and $i < 100 return <n>{ $i }{ $a/zip_code }</n>`},
	{"eq", `for $a at $i in doc("d2")//address where $i = 5 return <n>{ $i }{ $a/zip_code }</n>`},
	{"mirrored", `for $a at $i in doc("d2")//address where 100 > $i return <n>{ $a/zip_code }</n>`},
	{"fraction", `for $a at $i in doc("d2")//address where $i < 99.5 return <n>{ $i }</n>`},
	{"empty", `for $a at $i in doc("d2")//address where $i <= 0 return <n>{ $a }</n>`},
	{"neq", `for $a at $i in doc("d2")//address where $i != 3 and $a/zip_code return <n>{ $i }</n>`},
	{"unbounded", `for $a at $i in doc("d2")//address return $a/zip_code`},
	{"return-ordinal", `for $a at $i in doc("d2")//address where $i <= 10 return <r>{ $i }</r>`},
	{"order-by", `for $a at $i in doc("d2")//address where $i < 50 order by $a/zip_code descending return <r>{ $i }{ $a/zip_code }</r>`},
	{"order-by-ordinal", `for $a at $i in doc("d2")//address where $i < 20 order by $i descending return <r>{ $i }</r>`},
	{"let", `for $a at $i in doc("d2")//address let $z := $a/zip_code where $i < 20 return <r>{ $i }{ $z }</r>`},
	{"for-predicate", `for $a at $i in doc("d2")//address[zip_code] where $i < 20 return <r>{ $i }{ $a/zip_code }</r>`},
	// d1's a elements nest: each is one binding, in document order.
	{"recursive", `for $x at $i in doc("d1")//a where $i < 30 return <r>{ $i }{ $x/b1 }</r>`},
	// A join-rooted plan: the rows are truncated, the scans run out.
	{"join-rooted", `for $x at $i in doc("d1")//a//b1 where $i < 30 return <r>{ $i }{ $x }</r>`},
	// The narrowing trap where the tail, not the scan, applies the limit.
	{"join-rooted-narrowing-trap", `for $x at $i in doc("d1")//a//b1 where exists($x//c3) and $i < 60 return <r>{ $i }</r>`},
}

// TestPositionalAgreesWithNavigational compares every positional query,
// byte for byte, with the navigational evaluator under Auto and each
// forced strategy that is sound on its document, cold and warm.
func TestPositionalAgreesWithNavigational(t *testing.T) {
	e := positionalEngine(t)
	for _, tc := range positionalQueries {
		t.Run(tc.name, func(t *testing.T) {
			oracle, err := e.EvalOptions(tc.query, plan.Options{Strategy: plan.Navigational})
			if err != nil {
				t.Fatal(err)
			}
			if oracle.Len() == 0 && tc.name != "empty" {
				t.Fatal("the navigational answer is empty: the case tests nothing")
			}
			want := Canonical(oracle)
			strategies := []plan.Strategy{plan.Auto, plan.BoundedNL, plan.Twig}
			if !strings.Contains(tc.query, `doc("d1")`) {
				strategies = append(strategies, plan.Pipelined)
			}
			for _, s := range strategies {
				for run := 0; run < 2; run++ {
					res, err := e.EvalOptions(tc.query, plan.Options{Strategy: s})
					if s == plan.Twig && err != nil && strings.Contains(err.Error(), "TwigStack") {
						break // outside TwigStack's fragment
					}
					if err != nil {
						t.Fatalf("%s run %d: %v", s, run, err)
					}
					if res.Plan == nil {
						t.Fatalf("%s run %d: fell back (%s)", s, run, res.NavReason)
					}
					if got := Canonical(res); got != want {
						t.Errorf("%s run %d disagrees with the navigational evaluator\n--- got ---\n%s--- want ---\n%s", s, run, got, want)
					}
				}
			}
		})
	}
}

// TestPositionalSeveralForClausesFallBack: with a second for-clause the
// ordinal counts within each outer binding, which the planned rows do
// not number; the query runs navigationally and says why.
func TestPositionalSeveralForClausesFallBack(t *testing.T) {
	e := positionalEngine(t)
	res, err := e.Eval(`for $x at $i in doc("d1")//a, $y in $x/b1 where $i < 3 return <r>{ $y }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil || !strings.Contains(res.NavReason, "2 for-clauses") {
		t.Errorf("planned = %v, nav reason %q; want a fallback naming the for-clauses", res.Plan != nil, res.NavReason)
	}
}

// totalScanned sums the nodes every operator of the run scanned.
func totalScanned(t *testing.T, res *Result) int64 {
	t.Helper()
	if res.Plan == nil {
		t.Fatalf("no plan (fell back: %s)", res.NavReason)
	}
	return res.Plan.StatsTree().TotalScanned()
}

// TestPositionalLimitStopsTheScan: the limited F6 root is the bare
// address scan, so the run reads about Limit postings, not all 530;
// and a limit no row can pass scans nothing.
func TestPositionalLimitStopsTheScan(t *testing.T) {
	e := positionalEngine(t)
	for _, s := range []plan.Strategy{plan.Auto, plan.Pipelined, plan.BoundedNL} {
		res, err := e.EvalOptions(f6, plan.Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if n := totalScanned(t, res); n > 2*99 {
			t.Errorf("%s: F6 scanned %d nodes, want at most %d (the scan stops after row 99)", s, n, 2*99)
		}
		if !strings.Contains(res.Plan.Explain(), "the scan stops after row 99") {
			t.Errorf("%s: EXPLAIN does not note the early stop:\n%s", s, res.Plan.Explain())
		}
	}
	for _, s := range []plan.Strategy{plan.Auto, plan.Pipelined, plan.BoundedNL, plan.Twig} {
		res, err := e.EvalOptions(`for $a at $i in doc("d2")//address where $i <= 0 return $a`, plan.Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if n := totalScanned(t, res); n != 0 || res.Len() != 0 {
			t.Errorf("%s: $i <= 0 scanned %d nodes for %d rows, want none", s, n, res.Len())
		}
	}
	res, err := e.Eval(`for $x at $i in doc("d1")//a//b1 where $i < 30 return $x`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan.Explain(), "rows truncated") {
		t.Errorf("join-rooted plan does not note its truncation:\n%s", res.Plan.Explain())
	}
}

// TestPositionalNoReplanAtFirstHit: the limited scan's output estimate
// is the limit it stops at, so its first run shows no drift and the
// first cache hit keeps the template.
func TestPositionalNoReplanAtFirstHit(t *testing.T) {
	e := positionalEngine(t)
	for run := 0; run < 3; run++ {
		res, err := e.Eval(f6)
		if err != nil {
			t.Fatal(err)
		}
		if res.Replanned || res.Drift >= replanDrift {
			t.Errorf("run %d: replanned = %v, drift %.2f; want no replan", run, res.Replanned, res.Drift)
		}
	}
}

// TestPositionalOrdinalIsAText: $i binds a detached text node holding the
// ordinal, as the navigational evaluator binds it.
func TestPositionalOrdinalIsAText(t *testing.T) {
	e := positionalEngine(t)
	res, err := e.Eval(`for $a at $i in doc("d2")//address where $i <= 2 return $a`)
	if err != nil {
		t.Fatal(err)
	}
	envs := res.Envs()
	if len(envs) != 2 {
		t.Fatalf("%d rows, want 2", len(envs))
	}
	for k, env := range envs {
		ord := env["i"]
		if len(ord) != 1 || ord[0].Kind != xmltree.TextNode || ord[0].Text != string(rune('1'+k)) {
			t.Errorf("row %d: $i = %v, want the text %d", k, ord, k+1)
		}
	}
}
