package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
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
	doc, err := xmltree.ParseString("<r>" + strings.Repeat("<a><b><c/></b><b/><c/></a>", 200) + "</r>")
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Add("g.xml", doc)
	return e
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
// one batch worker fails only that query.
func TestPanicRecoveryInBatchWorkers(t *testing.T) {
	e := govEngine(t)
	inj := fault.New().PanicAt(fault.SiteNoKEmit, 3)
	srcs := []string{`//a//c`, `//a//b`, `//a/b/c`, `//r//a`}
	results := e.EvalBatch(srcs, plan.Options{Fault: inj}, 2)
	var panicked, ok int
	for _, r := range results {
		switch {
		case r.Err == nil:
			ok++
		case strings.Contains(r.Err.Error(), "panicked"):
			panicked++
		default:
			t.Errorf("query %q: unexpected error %v", r.Query, r.Err)
		}
	}
	if panicked != 1 || ok != len(srcs)-1 {
		t.Errorf("panicked=%d ok=%d, want exactly one panicked query (injector fires once)", panicked, ok)
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

// TestEvalBatchMidFlightCancellation cancels the shared context while
// batch workers are mid-evaluation. Every result must be either a clean
// result or a typed abort, and the worker pool must drain without
// leaking goroutines. Run under -race this is the cancellation stress
// test of the CI check target.
func TestEvalBatchMidFlightCancellation(t *testing.T) {
	e := govEngine(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	srcs := make([]string, 64)
	for i := range srcs {
		srcs[i] = `//a//c`
	}
	// Cancel as soon as the first query completes: later workers are
	// then mid-flight or not yet started.
	var done atomic.Bool
	go func() {
		for !done.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	results := e.EvalBatch(srcs, plan.Options{Ctx: ctx}, 4)
	done.Store(true)
	cancel()
	var okCount, canceledCount int
	for _, r := range results {
		switch {
		case r.Err == nil:
			okCount++
			done.Store(true)
		case errors.Is(r.Err, gov.ErrCanceled):
			canceledCount++
		default:
			t.Errorf("query %d: unexpected error %v", 0, r.Err)
		}
	}
	if okCount+canceledCount != len(srcs) {
		t.Errorf("results: %d ok + %d canceled != %d queries", okCount, canceledCount, len(srcs))
	}
	waitForGoroutines(t, baseline)
}

// TestEvalBatchPreCanceled checks a batch under an already-canceled
// context returns ErrCanceled for every query without scanning.
func TestEvalBatchPreCanceled(t *testing.T) {
	e := govEngine(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counter := fault.New()
	srcs := []string{`//a//c`, `//a//b`, `//r//a`}
	results := e.EvalBatch(srcs, plan.Options{Ctx: ctx, Fault: counter}, 3)
	for _, r := range results {
		if !errors.Is(r.Err, gov.ErrCanceled) {
			t.Errorf("query %q: err = %v, want ErrCanceled", r.Query, r.Err)
		}
	}
	if n := counter.Hits(fault.SiteNoKScan); n != 0 {
		t.Errorf("batch scanned %d nodes under a pre-canceled context", n)
	}
	waitForGoroutines(t, baseline)
}

// TestEvalAllDocsMidFlightCancellation is the multi-document analogue:
// cancellation mid-fan-out yields typed per-document errors and no
// goroutine leaks.
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
	results, err := e.EvalAllDocs(`//a//c`, plan.Options{Ctx: ctx}, 4)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil && !errors.Is(r.Err, gov.ErrCanceled) {
			t.Errorf("doc %s: unexpected error %v", r.URI, r.Err)
		}
	}
	waitForGoroutines(t, baseline)
}

// TestPerQueryBudgetsInBatch checks each batch query gets its own
// budget accounting: with a per-query node budget generous enough for
// the small query and too small for the large one, only the large one
// aborts.
func TestPerQueryBudgetsInBatch(t *testing.T) {
	e := govEngine(t)
	srcs := []string{`//a/b/c`, `//a//c`}
	results := e.EvalBatch(srcs, plan.Options{Budget: gov.Budget{MaxNodes: 2_000_000}}, 2)
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("generous budget: query %q failed: %v", r.Query, r.Err)
		}
	}
}
