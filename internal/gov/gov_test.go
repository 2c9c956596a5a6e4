package gov

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"blossomtree/internal/fault"
	"blossomtree/internal/obs"
)

func TestNewNoOpFastPath(t *testing.T) {
	if g := New(nil, Budget{}, nil); g != nil {
		t.Error("nil inputs should yield a nil governor")
	}
	if g := New(context.Background(), Budget{}, nil); g != nil {
		t.Error("background context and zero budget should yield a nil governor")
	}
	if g := New(nil, Budget{MaxNodes: 1}, nil); g == nil {
		t.Error("a node budget needs a governor")
	}
	if g := New(nil, Budget{}, fault.New()); g == nil {
		t.Error("a fault script needs a governor")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if g := New(ctx, Budget{}, nil); g == nil {
		t.Error("a cancelable context needs a governor")
	}
}

func TestNilGovernorIsNoOp(t *testing.T) {
	var g *Governor
	if g.Err() != nil || g.CheckNow() != nil || g.Poll() != nil ||
		g.Scanned(fault.SiteNoKScan, 10) != nil || g.Emitted(fault.SiteNoKEmit) != nil ||
		g.Output(5) != nil {
		t.Fatal("nil governor reported a violation")
	}
	if g.NodesScanned() != 0 || g.Outputs() != 0 {
		t.Fatal("nil governor counted work")
	}
}

func TestAlreadyCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(ctx, Budget{}, nil)
	err := g.CheckNow()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("CheckNow on canceled ctx = %v, want ErrCanceled", err)
	}
	// Sticky: the same abort comes back without consulting the context.
	if err2 := g.Err(); !errors.Is(err2, ErrCanceled) {
		t.Fatalf("Err after violation = %v", err2)
	}
}

func TestContextDeadlineMapsToBudget(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	g := New(ctx, Budget{}, nil)
	if err := g.CheckNow(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expired ctx deadline = %v, want ErrBudgetExceeded", err)
	}
}

func TestNodeBudget(t *testing.T) {
	g := New(nil, Budget{MaxNodes: 100}, nil)
	if err := g.Scanned(fault.SiteNoKScan, 100); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := g.Scanned(fault.SiteNoKScan, 1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over budget = %v, want ErrBudgetExceeded", err)
	}
	if g.NodesScanned() != 101 {
		t.Fatalf("NodesScanned = %d, want 101", g.NodesScanned())
	}
}

func TestOutputBudget(t *testing.T) {
	g := New(nil, Budget{MaxOutput: 2}, nil)
	if err := g.Output(2); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := g.Output(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over budget = %v, want ErrBudgetExceeded", err)
	}
	if g.Outputs() != 3 {
		t.Fatalf("Outputs = %d, want 3", g.Outputs())
	}
}

func TestWallClockTimeout(t *testing.T) {
	g := New(nil, Budget{Timeout: time.Millisecond}, nil)
	time.Sleep(5 * time.Millisecond)
	if err := g.CheckNow(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expired timeout = %v, want ErrBudgetExceeded", err)
	}
}

// TestPollAmortization checks both halves of the amortized contract:
// Poll is cheap (no clock consultation) off the interval, and a
// canceled context is observed within one checkInterval of ticks.
func TestPollAmortization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Budget{}, nil)
	if err := g.Poll(); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	cancel()
	var err error
	for i := 0; i < checkInterval+1; i++ {
		if err = g.Poll(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancellation not observed within %d polls: %v", checkInterval+1, err)
	}
}

func TestInjectedFaultBecomesSticky(t *testing.T) {
	boom := errors.New("boom")
	g := New(nil, Budget{}, fault.New().FailAt(fault.SitePipelined, 2, boom))
	if err := g.Emitted(fault.SitePipelined); err != nil {
		t.Fatalf("first emission: %v", err)
	}
	if err := g.Emitted(fault.SitePipelined); !errors.Is(err, boom) {
		t.Fatalf("second emission = %v, want boom", err)
	}
	// The fault is sticky across sites: every later check fails too.
	if err := g.Poll(); !errors.Is(err, boom) {
		t.Fatalf("Poll after fault = %v, want boom", err)
	}
	if err := g.Scanned(fault.SiteNoKScan, 1); !errors.Is(err, boom) {
		t.Fatalf("Scanned after fault = %v, want boom", err)
	}
}

func TestFirstViolationWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Budget{MaxNodes: 1}, nil)
	if err := g.Scanned(fault.SiteNoKScan, 5); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget violation = %v", err)
	}
	cancel()
	if err := g.CheckNow(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("later cancellation replaced the first violation: %v", err)
	}
}

func TestWithStatsAndStatsOf(t *testing.T) {
	st := &obs.OpStats{}
	g := New(nil, Budget{MaxNodes: 1}, nil)
	err := g.Scanned(fault.SiteNoKScan, 2)
	if err == nil {
		t.Fatal("expected violation")
	}
	if _, ok := StatsOf(err); ok {
		t.Fatal("stats present before attach")
	}
	err = WithStats(err, st)
	got, ok := StatsOf(err)
	if !ok || got != st {
		t.Fatalf("StatsOf = (%v, %v), want attached tree", got, ok)
	}
	// Idempotent: a second attach keeps the first tree.
	err = WithStats(err, &obs.OpStats{})
	if got, _ := StatsOf(err); got != st {
		t.Fatal("second WithStats replaced the stats")
	}
	// Non-abort errors pass through untouched.
	plain := errors.New("plain")
	if WithStats(plain, st) != plain {
		t.Fatal("WithStats altered a non-abort error")
	}
}

// TestWithStatsConcurrentOnStickyAbort: evaluations sharing one
// governor all receive its one sticky abort and attach their own stats
// tree to it concurrently; each must get its own tree back and the
// shared abort must stay untouched (run under -race).
func TestWithStatsConcurrentOnStickyAbort(t *testing.T) {
	g := New(nil, Budget{MaxNodes: 1}, nil)
	if g.Scanned(fault.SiteNoKScan, 2) == nil {
		t.Fatal("expected violation")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &obs.OpStats{}
			err := WithStats(g.Err(), st)
			if got, _ := StatsOf(err); got != st {
				t.Errorf("StatsOf = %p, want this goroutine's tree %p", got, st)
			}
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("copy lost its cause: %v", err)
			}
		}()
	}
	wg.Wait()
	if _, ok := StatsOf(g.Err()); ok {
		t.Error("WithStats wrote to the governor's shared abort")
	}
}

func TestCancelAfterCreation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Budget{}, nil)
	if err := g.CheckNow(); err != nil {
		t.Fatalf("CheckNow before cancellation = %v", err)
	}
	cancel()
	if err := g.CheckNow(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("CheckNow after cancellation = %v, want ErrCanceled", err)
	}
}
