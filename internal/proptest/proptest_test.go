package proptest

import (
	"flag"
	"math/rand"
	"strings"
	"testing"

	"blossomtree/internal/exec"
	"blossomtree/internal/flwor"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

var (
	flagCases = flag.Int("proptest.cases", 300,
		"number of random document cases (each contributes proptest.queries pairs)")
	flagQueries = flag.Int("proptest.queries", 4,
		"random queries evaluated per document case")
	flagSeed = flag.Int64("proptest.seed", DefaultSeed,
		"base seed; failure reports include the per-case seed")
)

// variants lists the evaluation configurations compared against the
// navigational oracle — every join strategy. The pipelined join is only
// sound on non-recursive documents (Theorem 2), so it is gated on the
// document's statistics.
func variants(recursive bool) []struct {
	name string
	opts plan.Options
} {
	vs := []struct {
		name string
		opts plan.Options
	}{
		{"auto", plan.Options{}},
		{"bounded-nl", plan.Options{Strategy: plan.BoundedNL}},
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

// tagAlphabets are the tag sets documents draw from; small sets give
// dense matches, larger sets sparser ones.
var tagAlphabets = [][]string{
	{"a", "b", "c"},
	{"a", "b", "c", "d"},
	{"a", "b", "c", "d", "e"},
}

var attrAlphabet = []string{"id", "k"}

// TestRandomizedDifferential is the property harness. Every case derives
// its own seed, generates one random document and several random queries
// over the document's alphabet, and checks every strategy variant — cold
// and warm against the plan cache — for byte-identical canonical results
// against the navigational oracle. Failure reports carry the case seed,
// the query and the serialized document, so any failure replays with
// -proptest.seed=<case seed> -proptest.cases=1.
func TestRandomizedDifferential(t *testing.T) {
	pairs, failures := 0, 0
	for ci := 0; ci < *flagCases; ci++ {
		caseSeed := *flagSeed + int64(ci)*GoldenGamma
		r := rand.New(rand.NewSource(caseSeed))
		tags := tagAlphabets[r.Intn(len(tagAlphabets))]
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{
			Tags:     tags,
			MaxNodes: 30 + r.Intn(90),
			MaxDepth: 4 + r.Intn(4),
			AttrProb: 40,
			Attrs:    attrAlphabet,
		})
		stats := xmltree.ComputeStats(doc)
		e := exec.New()
		e.Add("d", doc)
		g := NewGen(r, tags, attrAlphabet)
		for qi := 0; qi < *flagQueries; qi++ {
			q := g.Query()
			pairs++
			if !runPair(t, e, doc, stats.Recursive, q, caseSeed) {
				failures++
				if failures >= 5 {
					t.Fatalf("stopping after %d failing pairs (seed %#x)", failures, *flagSeed)
				}
			}
		}
	}
	t.Logf("proptest: %d (document, query) pairs across %d cases, base seed %#x",
		pairs, *flagCases, *flagSeed)
}

// runPair checks one (document, query) pair across all variants; it
// reports false if any check failed.
func runPair(t *testing.T, e *exec.Engine, doc *xmltree.Document, recursive bool, q string, caseSeed int64) bool {
	t.Helper()
	ok := true
	report := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		if ok { // print the reproduction context once per pair
			t.Logf("repro: seed %#x, query %q, document:\n%s",
				caseSeed, q, xmltree.Serialize(doc.Root, xmltree.WriteOptions{}))
		}
		ok = false
	}

	oracle, oerr := e.EvalOptions(q, plan.Options{Strategy: plan.Navigational})
	if oerr != nil {
		// A query the oracle rejects must be rejected by every variant
		// too — never silently answered.
		for _, v := range variants(recursive) {
			if _, err := e.EvalOptions(q, v.opts); err == nil {
				report("seed %#x: query %q: oracle errored (%v) but variant %s succeeded",
					caseSeed, q, oerr, v.name)
			}
		}
		return ok
	}
	want := exec.Canonical(oracle)

	for _, v := range variants(recursive) {
		cold, err := e.EvalOptions(q, v.opts)
		if err != nil {
			if v.opts.Strategy == plan.Twig && strings.Contains(err.Error(), "TwigStack") {
				continue // query outside TwigStack's fragment
			}
			report("seed %#x: query %q: variant %s errored: %v", caseSeed, q, v.name, err)
			continue
		}
		if got := exec.Canonical(cold); got != want {
			report("seed %#x: query %q: variant %s disagrees with oracle\n--- %s ---\n%s--- oracle ---\n%s",
				caseSeed, q, v.name, v.name, got, want)
			continue
		}
		warm, err := e.EvalOptions(q, v.opts)
		if err != nil {
			report("seed %#x: query %q: variant %s warm run errored: %v", caseSeed, q, v.name, err)
			continue
		}
		if !warm.Cached {
			report("seed %#x: query %q: variant %s warm run missed the plan cache", caseSeed, q, v.name)
		}
		if got := exec.Canonical(warm); got != want {
			report("seed %#x: query %q: variant %s warm result disagrees with oracle\n--- warm ---\n%s--- oracle ---\n%s",
				caseSeed, q, v.name, got, want)
		}
	}
	return ok
}

// TestGeneratorAlwaysParses pins the generator's contract: every
// generated query must parse. A generator emitting unparseable text
// would silently shrink the harness's coverage to error-path checks.
func TestGeneratorAlwaysParses(t *testing.T) {
	r := rand.New(rand.NewSource(*flagSeed))
	g := NewGen(r, []string{"a", "b", "c"}, attrAlphabet)
	for i := 0; i < 2000; i++ {
		q := g.Query()
		if _, err := flwor.Parse(q); err != nil {
			t.Fatalf("generated query %q does not parse: %v", q, err)
		}
	}
}
