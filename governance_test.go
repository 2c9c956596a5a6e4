package blossomtree

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"blossomtree/internal/fault"
	"blossomtree/internal/plan"
)

func newBigEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	src := "<r>" + strings.Repeat("<a><b><c/></b><b/><c/></a>", 200) + "</r>"
	if err := e.LoadString("g.xml", src); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQueryContextCanceled(t *testing.T) {
	e := newBigEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryWithContext(ctx, `//a//c`, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("QueryContext = %v, want ErrCanceled", err)
	}
}

func TestQueryContextDeadline(t *testing.T) {
	e := newBigEngine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.QueryWithContext(ctx, `//a//c`, Options{}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("QueryContext = %v, want ErrBudgetExceeded", err)
	}
}

func TestQueryBudgetAbortWithStats(t *testing.T) {
	e := newBigEngine(t)
	_, err := e.QueryWith(`//a//c`, Options{Budget: Budget{MaxNodes: 20}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("QueryWith = %v, want ErrBudgetExceeded", err)
	}
	st, ok := AbortStats(err)
	if !ok {
		t.Fatal("AbortStats found no partial statistics on the abort")
	}
	// A successful query is unaffected and AbortStats rejects its nil error.
	res, err := e.QueryWith(`//a//c`, Options{Budget: Budget{MaxNodes: 10_000_000}})
	if err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
	if res.Len() == 0 {
		t.Fatal("no results under a generous budget")
	}
	// The partial tree is the one of the operator that ran: on this
	// indexed document Auto plans TwigStack.
	if !strings.HasPrefix(res.Plan(), "plan strategy: TS\n") {
		t.Fatalf("Auto no longer plans TwigStack here:\n%s", res.Plan())
	}
	if !strings.HasPrefix(st, "TwigStack [") {
		t.Errorf("partial stats do not name the TwigStack that ran:\n%s", st)
	}
	if _, ok := AbortStats(nil); ok {
		t.Error("AbortStats(nil) reported stats")
	}
}

func TestQueryBudgetTimeout(t *testing.T) {
	e := newBigEngine(t)
	_, err := e.QueryWith(`//a//c`, Options{Budget: Budget{Timeout: time.Nanosecond}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("QueryWith = %v, want ErrBudgetExceeded", err)
	}
}

func TestQueryMaxOutput(t *testing.T) {
	e := newBigEngine(t)
	_, err := e.QueryWith(`//a//c`, Options{Budget: Budget{MaxOutput: 5}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("QueryWith = %v, want ErrBudgetExceeded", err)
	}
}

// TestQueryBatchContextCanceled: one canceled context shared by a batch
// of concurrent queries and by a gathered fan-out cancels every one.
func TestQueryBatchContextCanceled(t *testing.T) {
	e := newBigEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srcs := []string{`//a//c`, `//a//b`}
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.QueryWithContext(ctx, src, Options{})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("query %q: err = %v, want ErrCanceled", srcs[i], err)
		}
	}
	if _, err := e.QueryAllGatheredContext(ctx, srcs[0], Options{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("gathered: err = %v, want ErrCanceled", err)
	}
}

func TestQueryAllDocumentsContext(t *testing.T) {
	e := newBigEngine(t)
	if err := e.LoadString("h.xml", `<r><a><c/></a></r>`); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryAllGatheredContext(context.Background(), `//a//c`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// g.xml's 400 c's, then h.xml's one.
	if res.Len() != 401 {
		t.Fatalf("gathered %d results, want 401", res.Len())
	}
}

// TestExplainAnalyzeIsAnEvaluation: EXPLAIN ANALYZE runs through the
// same governed, traced evaluation as a query — an operator panic
// becomes an error counted in query_panics_total instead of crashing the
// process, a governed abort is classified in query_aborts_total, and the
// run's trace is retrievable under the pinned query ID.
func TestExplainAnalyzeIsAnEvaluation(t *testing.T) {
	e := NewEngine()
	if err := e.LoadString("g.xml", "<r><a><b><c/></b><b/><c/></a></r>"); err != nil {
		t.Fatal(err)
	}
	panics := Metrics()["query_panics_total"]
	inj := fault.New().PanicAt(fault.SiteNoKEmit, 1)
	_, err := e.x.Explain(`//a//c`, plan.Options{Analyze: true, Strategy: plan.BoundedNL, Fault: inj})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("EXPLAIN ANALYZE under an injected panic = %v, want a recovered-panic error", err)
	}
	if got := Metrics()["query_panics_total"]; got != panics+1 {
		t.Errorf("query_panics_total = %d, want %d", got, panics+1)
	}

	aborts := Metrics()["query_aborts_total"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExplainWithContext(ctx, `//a//c`, Options{Analyze: true}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled EXPLAIN ANALYZE = %v, want ErrCanceled", err)
	}
	if got := Metrics()["query_aborts_total"]; got != aborts+1 {
		t.Errorf("query_aborts_total = %d, want %d", got, aborts+1)
	}

	id := NewQueryID()
	out, err := e.ExplainWithContext(context.Background(), `//a//c`, Options{Analyze: true, QueryID: id})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " act=") {
		t.Errorf("EXPLAIN ANALYZE carries no actuals:\n%s", out)
	}
	if tr, ok := e.TraceJSON(id); !ok || !strings.Contains(string(tr), id) {
		t.Errorf("no trace stored under the pinned query ID %s", id)
	}
}
