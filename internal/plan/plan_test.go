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

// TestAutoRules pins the cost model's choices on real statistics: the
// §5.2 rules survive as outcomes of the model, not as code. Without an
// index (the streaming case) a non-recursive document runs PL and a
// recursive one, where PL is unsound, NL; with an index TwigStack's
// streams are cheapest either way.
func TestAutoRules(t *testing.T) {
	cases := []struct {
		name    string
		doc     string
		indexed bool
		opts    Options
		want    Strategy
	}{
		{name: "nonrec", doc: sample, want: Pipelined},
		{name: "nonrec with index", doc: sample, indexed: true, want: Twig},
		{name: "rec no index", doc: recursiveSample, want: BoundedNL},
		{name: "rec with index", doc: recursiveSample, indexed: true, want: Twig},
		{name: "forced", doc: sample, opts: Options{Strategy: BoundedNL}, want: BoundedNL},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := parse(t, c.doc)
			c.opts.Stats = xmltree.ComputeStats(doc)
			if c.indexed {
				c.opts.Index = index.Build(doc)
			}
			p, err := Build(compilePath(t, `//a//c`), doc, c.opts)
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
// cost model) must not pick PL, an explicit request falls back with a
// note, and every strategy returns the navigational row count.
func TestWildcardOuterIsNotPipelined(t *testing.T) {
	doc := parse(t, `<r><a><c><b/></c><b/></a><d><b/></d></r>`)
	ix := index.Build(doc)
	stats := xmltree.ComputeStats(doc)
	if stats.Recursive {
		t.Fatal("fixture must be non-recursive")
	}
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $x in doc("d")//*, $y in $x//b return <p>{$x}{$y}</p>`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts Options
		want Strategy
	}{
		{"auto", Options{}, BoundedNL},
		{"auto with index", Options{Index: ix}, Twig},
		{"forced pipelined", Options{Strategy: Pipelined, Index: ix}, BoundedNL},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.opts.Stats = stats
			p, err := Build(q, doc, c.opts)
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
			// r, a, c and d contain 3, 2, 1 and 1 b elements.
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
	want, err := naveval.EvalPath(doc, xpath.MustParse(`//a//c`))
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
	_, err := Build(compilePath(t, `//a//b[2]//c`), doc, Options{Strategy: BoundedNL})
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
	p, err := Build(q, doc, Options{})
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
	p, err := Build(compilePath(t, `/r/a//c`), doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := naveval.EvalPath(doc, xpath.MustParse(`/r/a//c`))
	if count := len(resultNodes(p, ins)); count != len(want) {
		t.Errorf("/r/a//c = %d results, want %d", count, len(want))
	}
}

func TestTrivialEmptyPlan(t *testing.T) {
	doc := parse(t, sample)
	p, err := Build(compilePath(t, `//zzz//c`), doc, Options{})
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
	// edges); the second clause scan-links a fresh NoK, exercising the
	// combine path that pushes a crossing into the Cartesian join.
	doc := parse(t, `<r><x><v>1</v></x><y><v>1</v></y><y><v>2</v></y></r>`)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $a in doc("d")/r/x, $b in doc("d")//y where $a/v = $b/v return $b`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, doc, Options{})
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
	if !strings.Contains(p.Explain(), "pushed crossing") {
		t.Errorf("crossing should be pushed into the scan-link join:\n%s", p.Explain())
	}
}

func TestCombineWithoutCrossingIsCartesian(t *testing.T) {
	doc := parse(t, `<r><x/><x/><y/><y/><y/></r>`)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $a in doc("d")/r/x, $b in doc("d")//y return $b`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, doc, Options{})
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
	if !strings.Contains(p.Explain(), "cartesian join") {
		t.Errorf("expected cartesian note:\n%s", p.Explain())
	}
}

func TestCanceledContextEndsExecution(t *testing.T) {
	doc := parse(t, sample)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := Build(compilePath(t, `//a//c`), doc, Options{
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
