package proptest

import (
	"fmt"
	"math/rand"
	"testing"

	"blossomtree/internal/exec"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

// flatLevels are the tags of the forced-pipelined leg's documents, by
// depth below the root r. A tag never repeats across levels, so the
// documents are non-recursive by construction (Theorem 2's condition),
// and each level has a second tag, so every query tag has look-alike
// subtrees that hold its descendants' tags without matching it: inner
// postings before the first outer, between outers and after the last.
var flatLevels = [][]string{{"a", "x"}, {"b", "y"}, {"c", "z"}, {"d"}}

// flatDoc generates one such document of some 30 to 120 elements.
// Fan-outs are skewed so that some elements hold wide groups and others
// are empty.
func flatDoc(r *rand.Rand) *xmltree.Document {
	b := xmltree.NewBuilder()
	id, budget := 0, 30+r.Intn(90)
	var gen func(depth int)
	gen = func(depth int) {
		if depth == len(flatLevels) {
			return
		}
		kids := r.Intn(3)
		if r.Intn(6) == 0 {
			kids = 3 + r.Intn(6)
		}
		for i := 0; i < kids && id < budget; i++ {
			tags := flatLevels[depth]
			id++
			b.StartAttrs(tags[r.Intn(len(tags))], []xmltree.Attr{{Name: "id", Value: fmt.Sprint(id)}})
			gen(depth + 1)
			b.End()
		}
	}
	b.Start("r")
	for id < budget {
		gen(0)
	}
	b.End()
	return b.MustDone()
}

// flatQueries exercise every emission mode of the pipelined join over
// those documents: per-pair joins under rare and frequent outers, one
// root outer carrying a wide group that a per-pair join then narrows,
// grouping joins whose outer slot holds several nodes per instance
// (nested predicates, let-bound regions) with and without witnesses,
// optional links whose outers stay when nothing matches, and joins whose
// outer instances repeat the previous one's nodes (a per-pair join
// feeding another join on the same or a higher vertex). The inner NoK
// roots of the last group are wildcards or carry a value constraint, so
// they anchor on every element or on a run whose postings the
// constraint then thins: the join skips over candidates that do not
// match the root.
var flatQueries = []string{
	`//a//c`,
	`//a//d`,
	`//x//d`,
	`//b//d`,
	`//r//b//d`,
	`//r//c//d`,
	`//a//b//d`,
	`//a//c//d`,
	`//a[.//c]`,
	`//a[.//d]//b`,
	`//a[.//b//d]`,
	`//r[.//b//d]//c`,
	`//a[.//b//d]//c`,
	`//a[.//y][.//c//d]`,
	// Unread inners (semi-joins) whose inner NoK has several vertices.
	`//a[.//b/d]`,
	`//a[.//b[d]]`,
	`//a[.//y][.//b/c]`,
	`//b[.//d][.//z]`,
	`//a[.//c]/b`,
	`for $x in doc("d")//a, $y in $x//c return <p>{ $x/@id }{ $y }</p>`,
	`for $x in doc("d")//a let $l := $x//c return <p>{ $x/@id }{ $l }</p>`,
	`for $x in doc("d")//b let $l := $x//d return <p>{ $x/@id }{ $l }</p>`,
	`for $x in doc("d")//a let $l := $x//b where exists($l//d) return $x`,
	`for $x in doc("d")//r let $l := $x//c return <p>{ $l }</p>`,
	`for $x in doc("d")//a, $y in $x//b, $z in $x//c return <p>{ $y/@id }{ $z/@id }</p>`,
	`for $x in doc("d")//a, $y in $x//c where exists($x//d) return <p>{ $x/@id }{ $y/@id }</p>`,
	// Sequentially scanned inners.
	`//a//*`,
	`//b//*[d]`,
	`//a//c[@id]`,
	`//a[.//*[@id = "7"]]`,
	`//a[.//d[@id != "9"]]//b`,
	`for $x in doc("d")//a, $y in $x//* return <p>{ $x/@id }{ $y/@id }</p>`,
	`for $x in doc("d")//b let $l := $x//*[@id] return <p>{ $x/@id }{ $l }</p>`,
	wildcardOuterQuery,
}

// wildcardOuterQuery is the one query of the leg the planner must refuse
// to run pipelined: its join's outer vertex is a wildcard, whose matches
// nest even on these documents, so a forced PL falls back to the bounded
// nested loop.
const wildcardOuterQuery = `for $x in doc("d")//*, $y in $x//d return <p>{ $x }{ $y }</p>`

// TestPipelinedOnNonRecursiveDocuments is the forced-PL leg of the
// harness: the randomized leg draws its tags at random, so its documents
// are almost always recursive and skip the pipelined variants. Every
// query here must agree byte for byte with the navigational oracle under
// the pipelined strategy, cold and from the plan cache, and must actually have run pipelined (wildcardOuterQuery: must
// have fallen back).
func TestPipelinedOnNonRecursiveDocuments(t *testing.T) {
	cases := *flagCases
	failures := 0
	for ci := 0; ci < cases; ci++ {
		caseSeed := *flagSeed + int64(ci)*GoldenGamma
		doc := flatDoc(rand.New(rand.NewSource(caseSeed)))
		if xmltree.ComputeStats(doc).Recursive {
			t.Fatalf("seed %#x: generated document is recursive", caseSeed)
		}
		e := exec.New()
		e.Add("d", doc)
		for _, q := range flatQueries {
			oracle, err := e.EvalOptions(q, plan.Options{Strategy: plan.Navigational})
			if err != nil {
				t.Fatalf("seed %#x: query %q: oracle: %v", caseSeed, q, err)
			}
			want := exec.Canonical(oracle)
			wantStrategy := plan.Pipelined
			if q == wildcardOuterQuery {
				wantStrategy = plan.BoundedNL
			}
			for _, temp := range []string{"cold", "warm"} {
				res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Pipelined})
				if err == nil && res.Plan == nil {
					err = fmt.Errorf("fell back to navigation: %s", res.NavReason)
				}
				if err == nil && res.Plan.Strategy != wantStrategy {
					err = fmt.Errorf("planned %s", res.Plan.Strategy)
				}
				if err == nil && exec.Canonical(res) != want {
					err = fmt.Errorf("disagrees with the oracle\n--- pipelined ---\n%s--- oracle ---\n%s",
						exec.Canonical(res), want)
				}
				if err != nil {
					t.Errorf("seed %#x: query %q (%s): %v\ndocument:\n%s", caseSeed, q,
						temp, err, xmltree.Serialize(doc.Root, xmltree.WriteOptions{}))
					if failures++; failures >= 5 {
						t.Fatalf("stopping after %d failures", failures)
					}
					break
				}
			}
		}
	}
	t.Logf("pipelined leg: %d documents × %d queries, base seed %#x",
		cases, len(flatQueries), *flagSeed)
}
