package proptest

import (
	"flag"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"

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
	var tally planTally
	for ci := 0; ci < *flagCases; ci++ {
		c := newCase(*flagSeed, ci)
		for qi := 0; qi < *flagQueries; qi++ {
			q := c.gen.Query()
			pairs++
			if !runPair(t, c.engine, c.doc, c.recursive, q, c.seed, &tally) {
				failures++
				if failures >= 5 {
					t.Fatalf("stopping after %d failing pairs (seed %#x)", failures, *flagSeed)
				}
			}
		}
	}
	t.Logf("proptest: %d (document, query) pairs across %d cases, base seed %#x",
		pairs, *flagCases, *flagSeed)
	t.Logf("proptest: %s", &tally)
}

// harnessCase is one case of the randomized leg: a random document
// registered as "d", and the generator of its queries.
type harnessCase struct {
	seed      int64
	doc       *xmltree.Document
	recursive bool
	engine    *exec.Engine
	gen       *Gen
}

// newCase derives case ci of the base seed: its own seed, its document
// and its query generator, all drawn from one *rand.Rand.
func newCase(base int64, ci int) harnessCase {
	seed := base + int64(ci)*GoldenGamma
	r := rand.New(rand.NewSource(seed))
	tags := tagAlphabets[r.Intn(len(tagAlphabets))]
	doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{
		Tags:     tags,
		MaxNodes: 30 + r.Intn(90),
		MaxDepth: 4 + r.Intn(4),
		AttrProb: 40,
		Attrs:    attrAlphabet,
	})
	e := exec.New()
	e.Add("d", doc)
	return harnessCase{seed: seed, doc: doc, recursive: xmltree.ComputeStats(doc).Recursive,
		engine: e, gen: NewGen(r, tags, attrAlphabet).Recurring(RecurringTags(doc))}
}

// planTally counts how the Auto leg ran the pairs it answered: planned,
// or routed to the navigational fallback, by reason. On a fallback every
// strategy leg runs the navigational evaluator, so the harness compares
// the oracle with itself; the planned share is what it really tests.
type planTally struct {
	planned, fallbacks int
	reasons            map[string]int
}

// add counts one answered pair.
func (pt *planTally) add(res *exec.Result) {
	if res.Plan != nil {
		pt.planned++
		return
	}
	pt.fallbacks++
	if pt.reasons == nil {
		pt.reasons = make(map[string]int)
	}
	pt.reasons[reasonClass(res.NavReason)]++
}

// String renders the counts, the reasons most frequent first.
func (pt *planTally) String() string {
	var sb strings.Builder
	total := pt.planned + pt.fallbacks
	fmt.Fprintf(&sb, "%d of %d answered pairs planned (%.1f%%), %d fell back",
		pt.planned, total, 100*float64(pt.planned)/float64(max(total, 1)), pt.fallbacks)
	reasons := make([]string, 0, len(pt.reasons))
	for r := range pt.reasons {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool {
		a, b := reasons[i], reasons[j]
		return pt.reasons[a] > pt.reasons[b] || pt.reasons[a] == pt.reasons[b] && a < b
	})
	for _, r := range reasons {
		fmt.Fprintf(&sb, "\n  %5d  %s", pt.reasons[r], r)
	}
	return sb.String()
}

// reasonClass reduces a fallback reason to its kind: its wording after
// the "core:"/"plan:" prefixes and the clause it names, up to the first
// word that names a vertex, a variable or an expression.
func reasonClass(reason string) string {
	words := strings.Fields(reason)
	for len(words) > 0 && (words[0] == "core:" || words[0] == "plan:") {
		words = words[1:]
	}
	if len(words) > 0 && (words[0] == "for" || words[0] == "let") {
		for len(words) > 0 && !strings.HasSuffix(words[0], ":") {
			words = words[1:]
		}
		if len(words) > 0 {
			words = words[1:]
		}
	}
	for i, w := range words {
		name, _, call := strings.Cut(w, "(")
		if w == "on" || w == "to" || name == "" || strings.ContainsFunc(name, func(r rune) bool {
			return !unicode.IsLetter(r) && !strings.ContainsRune("-/:,", r)
		}) {
			words = words[:i]
			break
		}
		if call { // a function's name stays, its arguments go
			words = append(words[:i], name)
			break
		}
	}
	return strings.Join(words, " ")
}

// runPair checks one (document, query) pair across all variants; it
// reports false if any check failed. A non-nil tally counts how the
// Auto variant ran the pair.
func runPair(t *testing.T, e *exec.Engine, doc *xmltree.Document, recursive bool, q string, caseSeed int64, tally *planTally) bool {
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
		if tally != nil && v.opts.Strategy == plan.Auto {
			tally.add(cold)
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

// plannedFloor is how many of the pinned seed's first 300 cases' 1 200
// pairs Auto plans (688 while every positional variable fell back):
// TestPlannedShare fails if fewer do, so a change that routes more
// queries to the navigational fallback shows.
const plannedFloor = 742

// TestPlannedShare bounds from below the share of the pinned seed's
// generated pairs that Auto plans rather than evaluates navigationally,
// whatever seed and case count the harness runs with.
func TestPlannedShare(t *testing.T) {
	var tally planTally
	for ci := 0; ci < 300; ci++ {
		c := newCase(DefaultSeed, ci)
		for qi := 0; qi < 4; qi++ {
			if res, err := c.engine.Eval(c.gen.Query()); err == nil {
				tally.add(res)
			}
		}
	}
	t.Logf("pinned seed: %s", &tally)
	if tally.planned < plannedFloor {
		t.Errorf("%d pairs planned, want at least %d:\n%s", tally.planned, plannedFloor, &tally)
	}
}

// TestGeneratorDrawsRecurringChains: over a document where c occurs
// under itself, the generator draws child steps between //-steps below
// c (//a//c/b//c), the shapes whose //-join outer instances can list
// nested items out of document order, and every one of them parses.
// Without the recurring tags such shapes only arise by chance.
func TestGeneratorDrawsRecurringChains(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><c><b/><c><b/></c></c><b><b/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	rec := RecurringTags(doc)
	if !slices.Equal(rec, []string{"c", "b"}) {
		t.Fatalf("RecurringTags = %v, want [c b]", rec)
	}
	chain := regexp.MustCompile(`//[bc]/[^/]+//`)
	chains := func(g *Gen) int {
		n := 0
		for i := 0; i < 2000; i++ {
			q := g.Query()
			if _, err := flwor.Parse(q); err != nil {
				t.Fatalf("generated query %q does not parse: %v", q, err)
			}
			if chain.MatchString(q) {
				n++
			}
		}
		return n
	}
	tags := []string{"a", "b", "c"}
	plain := chains(NewGen(rand.New(rand.NewSource(*flagSeed)), tags, attrAlphabet))
	drawn := chains(NewGen(rand.New(rand.NewSource(*flagSeed)), tags, attrAlphabet).Recurring(rec))
	if drawn < 50 || drawn < 2*plain {
		t.Errorf("%d of 2000 queries put a child step between //-steps below a recurring tag (%d by chance), want at least 50 and twice as many", drawn, plain)
	}
}
