package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

// govEngine returns an engine loaded with a document large enough that
// operators emit many instances per query.
func govEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.Add("g.xml", govDoc(t))
	return e
}

// govDoc parses govEngine's document.
func govDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	return mustParseDoc(t, "<r>"+strings.Repeat("<a><b><c/></b><b/><c/></a>", 200)+"</r>")
}

func TestEvalCanceledContext(t *testing.T) {
	e := govEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counter := fault.New()
	_, err := e.EvalOptions(`//a//c`, plan.Options{Ctx: ctx, Fault: counter})
	if !errors.Is(err, gov.ErrCanceled) {
		t.Fatalf("Eval = %v, want ErrCanceled", err)
	}
	for _, site := range []fault.Site{fault.SiteNoKScan, fault.SiteNoKEmit, fault.SiteNavStep} {
		if n := counter.Hits(site); n != 0 {
			t.Errorf("site %s hit %d times under a pre-canceled context", site, n)
		}
	}
}

// TestTwigOutputBudgetAbortsAtTheRow: TwigStack's rows are charged to the
// output budget one at a time as Execute hands them over, as NestedList
// instances are. On a path query and on a FLWOR query the abort comes
// at the row one past the budget, and the partial stats count that many
// rows emitted.
func TestTwigOutputBudgetAbortsAtTheRow(t *testing.T) {
	const budget = 7
	e := govEngine(t)
	for _, q := range []string{`//a//c`, `for $a in doc("g.xml")//a, $c in $a//c return <r>{ $c }</r>`} {
		_, err := e.EvalOptions(q, plan.Options{Strategy: plan.Twig, Budget: gov.Budget{MaxOutput: budget}})
		if !errors.Is(err, gov.ErrBudgetExceeded) || !strings.Contains(err.Error(), fmt.Sprintf("produced %d results (budget %d)", budget+1, budget)) {
			t.Fatalf("%s: err = %v, want the output budget to abort at row %d", q, err, budget+1)
		}
		if st, ok := gov.StatsOf(err); !ok || st.Name != "TwigStack" || st.Emitted() != budget+1 {
			t.Errorf("%s: partial stats %v (ok=%v) emitted %d rows, want TwigStack's %d", q, st.Name, ok, st.Emitted(), budget+1)
		}
	}
}

// TestPanicRecovery scripts an operator panic at varying emissions and
// checks the executor converts it to an error with operator context
// instead of crashing, and counts it in the metrics registry.
func TestPanicRecovery(t *testing.T) {
	e := govEngine(t)
	before := obs.Default.Snapshot()
	for _, k := range []int64{1, 50} {
		inj := fault.New().PanicAt(fault.SitePipelined, k)
		res, err := e.EvalOptions(`//a//c`, plan.Options{Strategy: plan.Pipelined, Fault: inj})
		if err == nil || res != nil {
			t.Fatalf("panic at hit %d: res=%v err=%v, want recovered error", k, res, err)
		}
		if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), string(fault.SitePipelined)) {
			t.Errorf("recovered error lacks context: %v", err)
		}
	}
	delta := obs.Default.Delta(before)
	if delta[obs.MetricQueryPanics] != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricQueryPanics, delta[obs.MetricQueryPanics])
	}
}

// TestPanicRecoveryInBatchWorkers checks a scripted operator bug inside
// one worker of an all-documents fan-out fails only that document's
// evaluation: its record carries the panic, every other document's
// evaluation completes, and the gathered call fails naming the document.
func TestPanicRecoveryInBatchWorkers(t *testing.T) {
	e := New()
	for i := 0; i < 4; i++ {
		e.Add(fmt.Sprintf("doc-%d.xml", i), govDoc(t))
	}
	inj := fault.New().PanicAt(fault.SiteNoKEmit, 3)
	_, err := e.EvalAllDocs(`//a//c`, plan.Options{Strategy: plan.BoundedNL, Fault: inj, QueryID: "p"})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("fan-out err = %v, want the recovered panic", err)
	}
	rec, ok := e.State().Recent.Get("p")
	if !ok {
		t.Fatal("the fan-out's record is not in the ring")
	}
	var panicked, completed int
	for _, c := range rec.Children {
		switch {
		case c.Verdict == "ok":
			completed++
		case strings.Contains(c.Err, "panicked"):
			panicked++
			if !strings.Contains(err.Error(), strings.TrimPrefix(c.QueryID, "p-")) {
				t.Errorf("fan-out err = %v, want it to name the panicked document of %s", err, c.QueryID)
			}
		default:
			t.Errorf("%s: unexpected error %s", c.QueryID, c.Err)
		}
	}
	if panicked != 1 || completed != len(rec.Children)-1 {
		t.Errorf("panicked=%d completed=%d, want exactly one panicked document (injector fires once)", panicked, completed)
	}
}

func TestBudgetAbortMetrics(t *testing.T) {
	e := govEngine(t)
	before := obs.Default.Snapshot()
	if _, err := e.EvalOptions(`//a//c`, plan.Options{Budget: gov.Budget{MaxNodes: 10}}); !errors.Is(err, gov.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	delta := obs.Default.Delta(before)
	if delta[obs.MetricQueryAborts] != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricQueryAborts, delta[obs.MetricQueryAborts])
	}
}

// TestNavigationalGovernance checks the oracle strategy is governed
// too: budgets abort it and pre-canceled contexts do no stepping.
func TestNavigationalGovernance(t *testing.T) {
	e := govEngine(t)
	opts := plan.Options{Strategy: plan.Navigational, Budget: gov.Budget{MaxNodes: 10}}
	if _, err := e.EvalOptions(`//a//c`, opts); !errors.Is(err, gov.ErrBudgetExceeded) {
		t.Fatalf("navigational budget abort = %v, want ErrBudgetExceeded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counter := fault.New()
	_, err := e.EvalOptions(`//a//c`, plan.Options{Strategy: plan.Navigational, Ctx: ctx, Fault: counter})
	if !errors.Is(err, gov.ErrCanceled) {
		t.Fatalf("navigational canceled ctx = %v, want ErrCanceled", err)
	}
	if n := counter.Hits(fault.SiteNavStep); n != 0 {
		t.Errorf("navigational evaluator stepped %d times under a pre-canceled context", n)
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (draining workers need a moment after cancellation). This is
// the dependency-free goleak equivalent.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEvalBatchMidFlightCancellation cancels the context a batch of
// concurrent evaluations shares while they are mid-evaluation. Every
// result must be either a clean result or a typed abort, and no
// goroutine may leak. Run under -race this is the cancellation stress
// test of the CI check target.
func TestEvalBatchMidFlightCancellation(t *testing.T) {
	e := govEngine(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	srcs := make([]string, 64)
	for i := range srcs {
		srcs[i] = `//a//c`
	}
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	results := evalConcurrently(e, srcs, plan.Options{Ctx: ctx})
	cancel()
	var okCount, canceledCount int
	for i, r := range results {
		switch {
		case r.err == nil:
			okCount++
		case errors.Is(r.err, gov.ErrCanceled):
			canceledCount++
		default:
			t.Errorf("query %d: unexpected error %v", i, r.err)
		}
	}
	if okCount+canceledCount != len(srcs) {
		t.Errorf("results: %d ok + %d canceled != %d queries", okCount, canceledCount, len(srcs))
	}
	waitForGoroutines(t, baseline)
}

// TestEvalBatchPreCanceled checks a fan-out under an already-canceled
// context fails with ErrCanceled without scanning, and its worker pool
// drains.
func TestEvalBatchPreCanceled(t *testing.T) {
	e := govEngine(t)
	e.Add("h.xml", mustParseDoc(t, `<r><a><c/></a></r>`))
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counter := fault.New()
	if _, err := e.EvalAllDocs(`//a//c`, plan.Options{Ctx: ctx, Fault: counter}); !errors.Is(err, gov.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if n := counter.Hits(fault.SiteNoKScan); n != 0 {
		t.Errorf("fan-out scanned %d nodes under a pre-canceled context", n)
	}
	waitForGoroutines(t, baseline)
}

// TestEvalAllDocsMidFlightCancellation is the fan-out analogue:
// cancellation mid-fan-out yields a typed abort (or a complete answer)
// and no goroutine leaks.
func TestEvalAllDocsMidFlightCancellation(t *testing.T) {
	e := New()
	for i := 0; i < 32; i++ {
		doc, err := xmltree.ParseString("<r>" + strings.Repeat("<a><b><c/></b></a>", 50) + "</r>")
		if err != nil {
			t.Fatal(err)
		}
		e.Add(fmt.Sprintf("doc-%02d.xml", i), doc)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	_, err := e.EvalAllDocs(`//a//c`, plan.Options{Ctx: ctx})
	cancel()
	if err != nil && !errors.Is(err, gov.ErrCanceled) {
		t.Errorf("unexpected error %v", err)
	}
	waitForGoroutines(t, baseline)
}

// TestPerQueryBudgetsInBatch checks concurrent evaluations each get
// their own budget accounting: with a node budget that covers the small
// query and not the large one, only the large one aborts, however the
// two interleave.
func TestPerQueryBudgetsInBatch(t *testing.T) {
	e := govEngine(t)
	opts := plan.Options{Strategy: plan.BoundedNL}
	scanned := func(q string) int64 {
		res, err := e.EvalOptions(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.NodesScanned
	}
	small, large := `//a/b/c`, `//a//c`
	budget := scanned(small)
	if scanned(large) <= budget {
		t.Fatalf("%s scans no more than %s", large, small)
	}
	opts.Budget = gov.Budget{MaxNodes: budget}
	for round := 0; round < 4; round++ {
		results := evalConcurrently(e, []string{small, large, small, large}, opts)
		for i, r := range results {
			if wantAbort := i%2 == 1; errors.Is(r.err, gov.ErrBudgetExceeded) != wantAbort || (!wantAbort && r.err != nil) {
				t.Errorf("round %d, query %d: err = %v, want abort %v", round, i, r.err, wantAbort)
			}
		}
	}
}
