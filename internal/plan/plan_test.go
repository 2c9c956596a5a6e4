package plan

import (
	"context"
	"errors"
	"strings"
	"testing"

	"blossomtree/internal/core"
	"blossomtree/internal/flwor"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/naveval"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

const sample = `<r>
  <a><b><c/></b><b/></a>
  <a><c/></a>
  <b><c/></b>
</r>`

func compilePath(t *testing.T, q string) *core.Query {
	t.Helper()
	cq, err := core.FromPath(xpath.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

func parse(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// buildIndexed is Build over the document's own tag index, as the
// executor always supplies one.
func buildIndexed(q *core.Query, doc *xmltree.Document, opts Options) (*Plan, error) {
	if opts.Index == nil {
		opts.Index = index.Build(doc)
	}
	return Build(q, doc, opts)
}

// TestBuildRequiresIndex: every document has its tag index, so a plan
// without one is a caller's bug, not a configuration to plan around.
func TestBuildRequiresIndex(t *testing.T) {
	doc := parse(t, sample)
	if _, err := Build(compilePath(t, `//a//c`), doc, Options{Stats: xmltree.ComputeStats(doc)}); err == nil {
		t.Error("Build without a tag index succeeded")
	}
}

// resultNodes collects the distinct nodes a path plan's run binds to the
// path's result, from NestedList instances and TwigStack rows alike.
func resultNodes(p *Plan, ins *Instances) map[*xmltree.Node]bool {
	rn, _ := p.Query.Return.ByVar("result")
	seen := map[*xmltree.Node]bool{}
	for i := range ins.Len() {
		for _, n := range ins.Bound(i, rn) {
			seen[n] = true
		}
	}
	return seen
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		Auto: "auto", Pipelined: "PL", BoundedNL: "NL", Twig: "TS",
		Navigational: "XH",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
	if !strings.Contains(Strategy(99).String(), "99") {
		t.Error("unknown strategy String")
	}
}

// recursiveSample nests a inside a, so the pipelined join is unsound on
// it (Theorem 2).
const recursiveSample = `<r>
  <a><b><c/></b><a><c/><c/></a></a>
  <a><c/></a>
</r>`

// letQuery groups each a's c descendants under a let: the edge is
// optional, so TwigStack cannot run it and Auto chooses between PL and
// NL alone.
const letQuery = `for $a in doc("d")//a let $c := $a//c return <r>{ $c }</r>`

// TestAutoRules pins the cost model's choices on real statistics: the
// §5.2 rules survive as outcomes of the model, not as code. Where
// TwigStack can run, its streams are cheapest on either document; where
// it cannot, a non-recursive document runs PL and a recursive one, where
// PL is unsound, NL.
func TestAutoRules(t *testing.T) {
	cases := []struct {
		name  string
		doc   string
		query string
		opts  Options
		want  Strategy
	}{
		{name: "nonrec", doc: sample, query: letQuery, want: Pipelined},
		{name: "nonrec with index", doc: sample, want: Twig},
		{name: "rec", doc: recursiveSample, query: letQuery, want: BoundedNL},
		{name: "rec with index", doc: recursiveSample, want: Twig},
		{name: "forced", doc: sample, opts: Options{Strategy: BoundedNL}, want: BoundedNL},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := parse(t, c.doc)
			c.opts.Stats = xmltree.ComputeStats(doc)
			q := compilePath(t, `//a//c`)
			if c.query != "" {
				var err error
				if q, err = core.FromFLWOR(flwor.MustParse(c.query)); err != nil {
					t.Fatal(err)
				}
			}
			p, err := buildIndexed(q, doc, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if p.Strategy != c.want {
				t.Errorf("strategy = %v, want %v\n%s", p.Strategy, c.want, p.ExplainCosts())
			}
		})
	}
}

// TestWildcardOuterIsNotPipelined: `*` matches nest even on a
// non-recursive document, so a //-join whose outer vertex is a wildcard
// fails the pipelined join's disjoint-outer precondition. Auto (the
// cost model) must not pick PL: on the let form, which TwigStack cannot
// run, it picks NL, and on the for form TS. An explicit PL request falls
// back with a note, and every strategy returns the navigational row
// count.
func TestWildcardOuterIsNotPipelined(t *testing.T) {
	doc := parse(t, `<r><a><c><b/></c><b/></a><d><b/></d></r>`)
	stats := xmltree.ComputeStats(doc)
	if stats.Recursive {
		t.Fatal("fixture must be non-recursive")
	}
	compile := func(src string) *core.Query {
		q, err := core.FromFLWOR(flwor.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	// r, a, c and d contain 3, 2, 1 and 1 b elements: 7 rows of the for
	// form, and 7 of the let form, one per element.
	forQ := compile(`for $x in doc("d")//*, $y in $x//b return <p>{$x}{$y}</p>`)
	letQ := compile(`for $x in doc("d")//* let $l := $x//b return <p>{$x}{$l}</p>`)
	for _, c := range []struct {
		name string
		q    *core.Query
		opts Options
		want Strategy
	}{
		{"auto", letQ, Options{}, BoundedNL},
		{"auto with index", forQ, Options{}, Twig},
		{"forced pipelined", forQ, Options{Strategy: Pipelined}, BoundedNL},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.opts.Stats = stats
			p, err := buildIndexed(c.q, doc, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if p.Strategy != c.want {
				t.Errorf("strategy = %v, want %v\n%s", p.Strategy, c.want, p.Explain())
			}
			if c.opts.Strategy == Pipelined && !strings.Contains(p.Explain(), "pipelined join unsound") {
				t.Errorf("EXPLAIN lacks the fallback note:\n%s", p.Explain())
			}
			for _, e := range p.EstimateCosts() {
				if e.Strategy == Pipelined && e.Sound {
					t.Errorf("cost model prices PL as sound: %+v", e)
				}
			}
			ins, err := p.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if ins.Len() != 7 {
				t.Errorf("%d rows, want 7", ins.Len())
			}
		})
	}
}

func TestAutoTwigFallback(t *testing.T) {
	doc := parse(t, sample)
	ix := index.Build(doc)
	// Positional constraint makes TwigStack incompatible; the cost model
	// prices it unsound, so Auto on recursive stats picks another
	// strategy rather than fail.
	p, err := Build(compilePath(t, `//a[2]//c`), doc,
		Options{Stats: xmltree.Stats{Recursive: true, Nodes: 1}, Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy == Twig {
		t.Errorf("expected fallback, got %v", p.Strategy)
	}
	// Forced Twig surfaces the error at build or operator time.
	if p2, err := Build(compilePath(t, `//a[2]//c`), doc, Options{Strategy: Twig, Index: ix}); err == nil {
		if err := p2.Prepare(); err == nil {
			t.Error("forced incompatible Twig should fail")
		}
	}
}

func TestExecuteAcrossStrategies(t *testing.T) {
	doc := parse(t, sample)
	ix := index.Build(doc)
	want, err := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(`//a//c`), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Pipelined, BoundedNL, Twig} {
		t.Run(s.String(), func(t *testing.T) {
			p, err := Build(compilePath(t, `//a//c`), doc, Options{Strategy: s, Index: ix})
			if err != nil {
				t.Fatal(err)
			}
			ins, err := p.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if count := len(resultNodes(p, ins)); count != len(want) {
				t.Errorf("%s: %d distinct results, want %d", s, count, len(want))
			}
		})
	}
}

func TestIndexScanNote(t *testing.T) {
	doc := parse(t, sample)
	ix := index.Build(doc)
	p, err := Build(compilePath(t, `//a//c`), doc, Options{Strategy: Pipelined, Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "tag index") {
		t.Errorf("expected index scans in explain:\n%s", p.Explain())
	}
}

func TestPositionFilterOnNestedCutFails(t *testing.T) {
	doc := parse(t, sample)
	_, err := buildIndexed(compilePath(t, `//a//b[2]//c`), doc, Options{Strategy: BoundedNL})
	if err == nil {
		t.Fatal("nested positional //-step should be rejected at Build time")
	}
	if !errors.Is(err, core.ErrOutsideFragment) {
		t.Errorf("err = %v, want ErrOutsideFragment (so the executor can fall back)", err)
	}
}

func TestFLWORCrossingPlan(t *testing.T) {
	doc := parse(t, `<r><x><v>1</v></x><y><v>1</v></y><y><v>2</v></y></r>`)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $a in doc("d")//x, $b in doc("d")//y where $a/v = $b/v return $b`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildIndexed(q, doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ins.Len() != 1 {
		t.Fatalf("join rows = %d, want 1", ins.Len())
	}
	bn, _ := q.Return.ByVar("b")
	got := ins.Bound(0, bn)
	if len(got) != 1 || xmltree.StringValue(got[0]) != "1" {
		t.Errorf("joined b = %v", got)
	}
	if !strings.Contains(p.Explain(), "joins two components") {
		t.Errorf("crossing should drive the component join:\n%s", p.Explain())
	}
}

func TestDocRootChainPlan(t *testing.T) {
	doc := parse(t, sample)
	// Query whose first NoK is the doc-root NoK with members: /r/a//c.
	p, err := buildIndexed(compilePath(t, `/r/a//c`), doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(`/r/a//c`), nil)
	if count := len(resultNodes(p, ins)); count != len(want) {
		t.Errorf("/r/a//c = %d results, want %d", count, len(want))
	}
}

func TestTrivialEmptyPlan(t *testing.T) {
	doc := parse(t, sample)
	p, err := buildIndexed(compilePath(t, `//zzz//c`), doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ls.Len() != 0 {
		t.Errorf("no-match query produced %d instances", ls.Len())
	}
}

func TestCombineScanLinkWithDocRootMembers(t *testing.T) {
	// First clause anchors in the doc-root NoK (/r/x has only child
	// edges); the second clause scan-links a fresh NoK, which stays a
	// component of its own until the crossing joins the two.
	doc := parse(t, `<r><x><v>1</v></x><y><v>1</v></y><y><v>2</v></y></r>`)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $a in doc("d")/r/x, $b in doc("d")//y where $a/v = $b/v return $b`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildIndexed(q, doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ls.Len() != 1 {
		t.Fatalf("rows = %d, want 1:\n%s", ls.Len(), p.Explain())
	}
	if !strings.Contains(p.Explain(), "joins two components (hash join keyed on") {
		t.Errorf("the crossing should hash-join the two for-clauses:\n%s", p.Explain())
	}
}

// TestForClauseCrossingsJoinAfterLinks: a doc-root clause and a scan-
// linked one are joined only after every link is wired, so the //-link
// below $a/w has pruned the w matches without a z before any crossing
// reads them — whichever conjunct comes first — and the plan agrees with
// the navigational evaluator.
func TestForClauseCrossingsJoinAfterLinks(t *testing.T) {
	doc := parse(t, `<r><x><v>1</v><w>a</w><w>b<z/></w></x><y><v>1</v><w>a</w></y><y><v>1</v><w>q</w></y></r>`)
	for _, src := range []string{
		`for $a in doc("d")/r/x, $b in doc("d")//y where $a/w[.//z] = $b/w and $a/v = $b/v return $b`,
		`for $a in doc("d")/r/x, $b in doc("d")//y where $a/v = $b/v and $a/w[.//z] = $b/w return $b`,
	} {
		want, err := naveval.EvalFLWOR(naveval.SingleDoc(doc), flwor.MustParse(src).(*flwor.FLWOR), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{Auto, Pipelined, BoundedNL} {
			p, err := buildIndexed(compileFLWOR(t, src), doc, Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			ins, err := p.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if ins.Len() != len(want) {
				t.Errorf("%s %s: rows = %d, navigational %d:\n%s", src, strat, ins.Len(), len(want), p.Explain())
			}
			r := p.StatsTree().Render(false)
			if !strings.HasPrefix(r, "HashJoin") || strings.Contains(r, "CrossingFilter") {
				t.Errorf("%s %s: both crossings should join the for-clauses at the root:\n%s", src, strat, r)
			}
		}
	}
}

func TestCombineWithoutCrossingIsCartesian(t *testing.T) {
	doc := parse(t, `<r><x/><x/><y/><y/><y/></r>`)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $a in doc("d")/r/x, $b in doc("d")//y return $b`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildIndexed(q, doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ls.Len() != 6 {
		t.Fatalf("cartesian rows = %d, want 6", ls.Len())
	}
	if !strings.Contains(p.Explain(), "cartesian product of disconnected components") {
		t.Errorf("expected cartesian note:\n%s", p.Explain())
	}
}

func TestCanceledContextEndsExecution(t *testing.T) {
	doc := parse(t, sample)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := buildIndexed(compilePath(t, `//a//c`), doc, Options{
		Strategy: BoundedNL,
		Ctx:      ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := p.Execute()
	if !errors.Is(err, gov.ErrCanceled) {
		t.Fatalf("canceled plan = %v, want ErrCanceled", err)
	}
	if ls != nil {
		t.Errorf("canceled plan produced %d instances", ls.Len())
	}
}

// compileFLWOR compiles a FLWOR query text.
func compileFLWOR(t *testing.T, src string) *core.Query {
	t.Helper()
	q, err := core.FromFLWOR(flwor.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// pubDoc has five p elements whose pub values pair up as A–A and B–B.
const pubDoc = `<r><p><pub>A</pub></p><p><pub>B</pub></p><p><pub>A</pub></p><p><pub>C</pub></p><p><pub>B</pub></p></r>`

// TestValueCrossingPlansHashJoin: the self-join shape of flwor-construct's
// F4 — a << and an = crossing between two for-clauses — plans one
// HashJoin keyed on the =, with the << tested on its candidate pairs and
// no CrossingFilter above it.
func TestValueCrossingPlansHashJoin(t *testing.T) {
	doc := parse(t, pubDoc)
	p, err := buildIndexed(compileFLWOR(t,
		`for $p in doc("d")//p, $q in doc("d")//p where $p << $q and $p/pub = $q/pub return $q`), doc, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ins.Len() != 2 {
		t.Errorf("rows = %d, want 2 (A–A, B–B)", ins.Len())
	}
	root := p.StatsTree()
	if root.Name != "HashJoin" || !strings.Contains(root.Detail.String(), "residual") {
		t.Errorf("plan root %s [%s], want the HashJoin with a residual:\n%s", root.Name, root.Detail.String(), root.Render(true))
	}
	// 5 + 5 instances keyed and 9 candidate pairs (each A with both A's,
	// each B with both B's, C with itself), against the 25 pairs a
	// nested loop tests.
	if cmp := root.Comparisons(); cmp != 19 {
		t.Errorf("cmp = %d, want 19", cmp)
	}
	if r := root.Render(true); strings.Contains(r, "CrossingFilter") || strings.Contains(r, "NestedLoopJoin") {
		t.Errorf("a crossing left to a filter or nested loop:\n%s", r)
	}
	if !strings.Contains(p.Explain(), "joins two components (hash join keyed on pub#") {
		t.Errorf("missing the hash-join note:\n%s", p.Explain())
	}
}

// TestNonEqualityCrossingsShareOneNestedLoop: without an = crossing the
// two components join by nested loop, which tests every crossing between
// them on each pair, so no CrossingFilter is left above it.
func TestNonEqualityCrossingsShareOneNestedLoop(t *testing.T) {
	doc := parse(t, pubDoc)
	p, err := buildIndexed(compileFLWOR(t,
		`for $p in doc("d")//p, $q in doc("d")//p where $p << $q and $p/pub != $q/pub return $q`), doc, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// Pairs p_i << p_j, i < j, of 10, less A–A (1,3) and B–B (2,5).
	if ins.Len() != 8 {
		t.Errorf("rows = %d, want 8", ins.Len())
	}
	root := p.StatsTree()
	if root.Name != "NestedLoopJoin" || !strings.Contains(root.Detail.String(), " and ") {
		t.Errorf("plan root %s [%s], want one NestedLoopJoin on both crossings", root.Name, root.Detail.String())
	}
	if root.Comparisons() != 25 {
		t.Errorf("cmp = %d, want 25 pair tests", root.Comparisons())
	}
}

// TestScansReadTheirPostings: a NoK scan reads exactly the postings of
// its root's tag test, whatever the root: every element for a wildcard
// root, the tag's run for a value-constrained root (the matcher tests
// the constraint), the one document node for a document-root NoK.
func TestScansReadTheirPostings(t *testing.T) {
	doc := parse(t, `<r><a><b>1</b><c/></a><a><b>2</b></a><b>1</b></r>`)
	ix := index.Build(doc)
	cases := []struct {
		name, query, access string
		postings            int
	}{
		{"wildcard", `//*[c]`, "index(*)", ix.TotalElements()},
		{"value-constrained", `//b[. = "1"]`, "index(b)", ix.Count("b")},
		{"document root", `/r/a/b`, "index(~)", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(c.query), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []Strategy{Pipelined, BoundedNL} {
				p, err := Build(compilePath(t, c.query), doc, Options{Strategy: strat, Index: ix})
				if err != nil {
					t.Fatal(err)
				}
				ins, err := p.Execute()
				if err != nil {
					t.Fatal(err)
				}
				if got := resultNodes(p, ins); len(got) != len(want) {
					t.Errorf("%s: %d results, navigational %d", strat, len(got), len(want))
				}
				scan := p.StatsTree()
				for scan.Name != "NoKScan" && len(scan.Children) > 0 {
					scan = scan.Children[0]
				}
				if scan.Name != "NoKScan" || !strings.HasSuffix(scan.Detail.String(), c.access) || scan.Scanned() != int64(c.postings) {
					t.Errorf("%s: scan %s %q read %d postings, want %s reading %d:\n%s",
						strat, scan.Name, scan.Detail.String(), scan.Scanned(), c.access, c.postings, scan.Render(true))
				}
			}
		})
	}
}
