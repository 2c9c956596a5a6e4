package plan

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"blossomtree/internal/core"
	"blossomtree/internal/fault"
	"blossomtree/internal/flwor"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

// govDoc is a non-recursive document large enough that every join
// operator emits many instances, so faults can target first, middle,
// and last emissions distinctly.
func govDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	return parse(t, "<r>"+strings.Repeat("<a><b><c/></b><b/><c/></a>", 200)+"</r>")
}

func govExecute(t *testing.T, doc *xmltree.Document, ix *index.TagIndex, strat Strategy, opts Options) error {
	t.Helper()
	return govExecuteQuery(t, doc, ix, compilePath(t, `//a//c`), strat, opts)
}

// govExecuteQuery is govExecute over a compiled query of the caller's.
func govExecuteQuery(t *testing.T, doc *xmltree.Document, ix *index.TagIndex, q *core.Query, strat Strategy, opts Options) error {
	t.Helper()
	opts.Strategy = strat
	opts.Index = ix
	p, err := buildIndexed(q, doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Execute()
	return err
}

// TestFaultInjectionPerOperator drives every planned operator family
// with a fault armed at its first, middle, and last instrumentation
// hit, asserting the injected error surfaces from Execute each time.
// The per-site hit totals come from a fault-free counting run, so the
// "last" case really is the operator's final emission. Every case runs
// //a//c but the crossing joins': a document-order join, whose crossing
// plans a NestedLoopJoin, and a value join, whose = crossing plans a
// HashJoin.
func TestFaultInjectionPerOperator(t *testing.T) {
	doc := govDoc(t)
	ix := index.Build(doc)
	path := compilePath(t, `//a//c`)
	compile := func(src string) *core.Query {
		q, err := core.FromFLWOR(flwor.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	orderJoin := compile(`for $x in doc("d")//a, $y in doc("d")//a where $x << $y return $y`)
	valueJoin := compile(`for $x in doc("d")//b, $y in doc("d")//a where $x/c = $y/c return $y`)
	cases := []struct {
		name  string
		q     *core.Query
		strat Strategy
		site  fault.Site
	}{
		{"pipelined-join", path, Pipelined, fault.SitePipelined},
		{"bounded-nl-join", path, BoundedNL, fault.SitePipelined},
		{"nested-loop-join", orderJoin, Pipelined, fault.SiteNestedLoop},
		{"hash-join", valueJoin, Pipelined, fault.SiteHashJoin},
		{"twigstack", path, Twig, fault.SiteTwigStack},
		{"nok-emit", path, Pipelined, fault.SiteNoKEmit},
		{"nok-scan", path, Pipelined, fault.SiteNoKScan},
		{"index-stream", path, Twig, fault.SiteIndexStream},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Counting run: an injector with no rules armed observes how
			// often the operator hits its site in a clean evaluation.
			counter := fault.New()
			if err := govExecuteQuery(t, doc, ix, tc.q, tc.strat, Options{Fault: counter}); err != nil {
				t.Fatalf("counting run failed: %v", err)
			}
			total := counter.Hits(tc.site)
			if total < 3 {
				t.Fatalf("site %s hit only %d times; document too small to test first/middle/last", tc.site, total)
			}
			boom := errors.New("injected operator failure")
			for _, k := range []int64{1, total / 2, total} {
				inj := fault.New().FailAt(tc.site, k, boom)
				err := govExecuteQuery(t, doc, ix, tc.q, tc.strat, Options{Fault: inj})
				if !errors.Is(err, boom) {
					t.Errorf("fault at hit %d/%d of %s: Execute = %v, want the injected error", k, total, tc.site, err)
				}
			}
		})
	}
}

// TestBudgetAbortCarriesPartialStats checks the tentpole acceptance
// criterion: a node-budget abort mid-join returns ErrBudgetExceeded
// carrying the partial per-operator statistics recorded up to the
// abort — a partial EXPLAIN ANALYZE.
func TestBudgetAbortCarriesPartialStats(t *testing.T) {
	doc := govDoc(t)
	ix := index.Build(doc)
	for _, strat := range []Strategy{Pipelined, BoundedNL, Twig} {
		t.Run(strat.String(), func(t *testing.T) {
			err := govExecute(t, doc, ix, strat, Options{Budget: gov.Budget{MaxNodes: 50}})
			if !errors.Is(err, gov.ErrBudgetExceeded) {
				t.Fatalf("Execute = %v, want ErrBudgetExceeded", err)
			}
			st, ok := gov.StatsOf(err)
			if !ok || st == nil {
				t.Fatal("abort carries no partial stats tree")
			}
			if r := st.Render(true); r == "" {
				t.Fatal("partial stats render empty")
			}
		})
	}
}

// TestTwigBudgetIsStreamTotal pins TwigStack's node charge to one pass
// over its vertices' streams: on d1 at the benchmark's size (seed 1,
// 2.5 % of Table 1) the branching //a[//b2][//b1]//b3 reads 15 355
// stream elements, the cost model's estimate, so that budget suffices
// and one node less aborts.
func TestTwigBudgetIsStreamTotal(t *testing.T) {
	doc := xmlgen.MustGenerate("d1", xmlgen.Config{Seed: 1, TargetNodes: 1_212_548 / 40})
	ix := index.Build(doc)
	run := func(maxNodes int64) (*Plan, error) {
		p, err := Build(compilePath(t, `//a[//b2][//b1]//b3`), doc,
			Options{Strategy: Twig, Index: ix, Budget: gov.Budget{MaxNodes: maxNodes}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Execute()
		return p, err
	}
	const total = 15_355
	p, err := run(total)
	if err != nil {
		t.Fatalf("budget %d: %v", total, err)
	}
	if st := p.StatsTree(); st.Scanned() != total || st.EstNodes != total {
		t.Errorf("scanned %d, estimated %.0f; want both %d", st.Scanned(), st.EstNodes, total)
	}
	if _, err := run(total - 1); !errors.Is(err, gov.ErrBudgetExceeded) {
		t.Errorf("budget %d: Execute = %v, want ErrBudgetExceeded", total-1, err)
	}
}

func TestOutputBudgetAbort(t *testing.T) {
	doc := govDoc(t)
	err := govExecute(t, doc, nil, Pipelined, Options{Budget: gov.Budget{MaxOutput: 3}})
	if !errors.Is(err, gov.ErrBudgetExceeded) {
		t.Fatalf("Execute = %v, want ErrBudgetExceeded", err)
	}
	if _, ok := gov.StatsOf(err); !ok {
		t.Fatal("output abort carries no partial stats")
	}
}

// TestHashJoinOutputBudget: a value join planned as a HashJoin stops at
// the output budget like any other plan, with its partial stats.
func TestHashJoinOutputBudget(t *testing.T) {
	doc := govDoc(t)
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $x in doc("d")//b, $y in doc("d")//a where $x/c = $y/c return $y`))
	if err != nil {
		t.Fatal(err)
	}
	err = govExecuteQuery(t, doc, index.Build(doc), q, Pipelined, Options{Budget: gov.Budget{MaxOutput: 3}})
	if !errors.Is(err, gov.ErrBudgetExceeded) {
		t.Fatalf("Execute = %v, want ErrBudgetExceeded", err)
	}
	if st, ok := gov.StatsOf(err); !ok || !strings.Contains(st.Render(true), "HashJoin") {
		t.Fatalf("output abort carries no HashJoin stats: %v", st)
	}
}

// TestCanceledContextScansNothing checks the zero-work guarantee: a
// context canceled before Execute returns ErrCanceled without the
// operators touching a single node.
func TestCanceledContextScansNothing(t *testing.T) {
	doc := govDoc(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counter := fault.New()
	p, err := buildIndexed(compilePath(t, `//a//c`), doc, Options{Strategy: Pipelined, Ctx: ctx, Fault: counter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); !errors.Is(err, gov.ErrCanceled) {
		t.Fatalf("Execute = %v, want ErrCanceled", err)
	}
	for _, site := range []fault.Site{fault.SiteNoKScan, fault.SiteNoKEmit, fault.SitePipelined, fault.SiteOutput} {
		if n := counter.Hits(site); n != 0 {
			t.Errorf("site %s hit %d times after pre-canceled context; want 0", site, n)
		}
	}
	if n := p.gov.NodesScanned(); n != 0 {
		t.Errorf("governor charged %d nodes after pre-canceled context", n)
	}
}

// TestDeadlineAbort checks wall-clock governance end to end with an
// already-expired budget deadline.
func TestDeadlineAbort(t *testing.T) {
	doc := govDoc(t)
	p, err := buildIndexed(compilePath(t, `//a//c`), doc,
		Options{Strategy: Pipelined, Budget: gov.Budget{Timeout: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if _, err := p.Execute(); !errors.Is(err, gov.ErrBudgetExceeded) {
		t.Fatalf("Execute = %v, want ErrBudgetExceeded", err)
	}
}
