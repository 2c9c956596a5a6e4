// Package gov is the query-governance layer: per-query cancellation
// (context.Context), wall-clock deadlines, and resource budgets (nodes
// scanned, result tuples), enforced cooperatively by every physical
// operator through a shared Governor.
//
// Design points:
//
//   - A nil *Governor is a valid no-op — every method is nil-safe — so
//     ungoverned queries (no context, no budget, no fault script) pay
//     one pointer check per instrumentation point and nothing else.
//   - Context and deadline tests are amortized: operators call the
//     governor once per emission or scanned node, and the governor
//     consults the clock and the context only every checkInterval
//     ticks, keeping the hot path free of time syscalls.
//   - The first violation is sticky. Operators observing a non-nil
//     governor error end their streams; the plan layer converts the
//     sticky error into a typed *AbortError carrying the partial
//     per-operator statistics tree (obs.OpStats), so an aborted query
//     still explains what it had done — the partial EXPLAIN ANALYZE.
//   - The governor also carries the fault-injection hook
//     (internal/fault): every instrumentation point doubles as a fault
//     site, which is how the robustness tests cancel or crash at the
//     k-th emission inside each operator.
package gov

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blossomtree/internal/fault"
	"blossomtree/internal/obs"
)

// Sentinel causes of a governed abort. AbortError wraps one of them, so
// errors.Is(err, ErrCanceled) and errors.Is(err, ErrBudgetExceeded)
// classify any abort the engine returns.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = errors.New("query canceled")
	// ErrBudgetExceeded reports that the query ran past a resource
	// budget: its deadline, its node-scan bound, or its result bound.
	ErrBudgetExceeded = errors.New("query resource budget exceeded")
	// ErrShed reports that admission control refused the query before
	// evaluation began — the server is overloaded or the tenant is over
	// quota. Shed errors never carry partial stats: nothing ran.
	ErrShed = errors.New("query shed by admission control")
)

// Budget bounds one query evaluation. Zero values mean unlimited.
type Budget struct {
	// MaxNodes caps document/index nodes the operators may scan.
	MaxNodes int64
	// MaxOutput caps result tuples (instances of the plan's root
	// operator, or rows of the navigational evaluator).
	MaxOutput int64
	// Timeout caps wall-clock evaluation time. It composes with any
	// context deadline; whichever expires first aborts the query.
	Timeout time.Duration
}

// IsZero reports whether no bound is set.
func (b Budget) IsZero() bool {
	return b.MaxNodes == 0 && b.MaxOutput == 0 && b.Timeout == 0
}

// AbortError is the typed error of a governed abort. It wraps the
// sentinel cause (ErrCanceled or ErrBudgetExceeded) and carries the
// partial per-operator statistics tree recorded up to the abort.
type AbortError struct {
	// Cause is ErrCanceled or ErrBudgetExceeded.
	Cause error
	// Reason is the specific trigger ("context canceled", "deadline
	// 50ms exceeded", "scanned 4096 nodes (budget 1024)", …).
	Reason string
	// Stats is the root of the partial operator-statistics tree at
	// abort time; nil when the abort happened before planning (e.g. a
	// context already canceled on entry) or under navigational
	// evaluation.
	Stats *obs.OpStats
}

// Error formats the abort.
func (e *AbortError) Error() string {
	return fmt.Sprintf("gov: %v: %s", e.Cause, e.Reason)
}

// Unwrap exposes the sentinel cause to errors.Is.
func (e *AbortError) Unwrap() error { return e.Cause }

// WithStats returns a governed abort carrying the partial stats tree,
// leaving any other error untouched. The stats go on a copy: the
// governor's sticky abort is shared by every evaluation running under
// it (a batch handed one governor through plan.Options.Gov), each with a
// tree of its own. It is idempotent: an abort that already carries stats
// is returned as is.
func WithStats(err error, st *obs.OpStats) error {
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Stats != nil {
		return err
	}
	cp := *ae
	cp.Stats = st
	return &cp
}

// StatsOf returns the partial stats tree carried by a governed abort.
func StatsOf(err error) (*obs.OpStats, bool) {
	var ae *AbortError
	if errors.As(err, &ae) && ae.Stats != nil {
		return ae.Stats, true
	}
	return nil, false
}

// checkInterval is the amortization window: the context and the clock
// are consulted once per this many governor ticks, so per-instance
// overhead stays at a few atomic operations.
const checkInterval = 1024

// Governor enforces one query's governance. All counters are atomics:
// the workers of a batch sharing one governor (plan.Options.Gov) hit it
// from several goroutines.
type Governor struct {
	ctx      context.Context
	budget   Budget
	deadline time.Time // zero when no Timeout
	inj      *fault.Injector

	nodes atomic.Int64 // nodes scanned so far
	out   atomic.Int64 // result tuples emitted so far
	ticks atomic.Int64 // instrumentation hits (amortization counter)

	failed atomic.Bool // fast path: sticky error present
	mu     sync.Mutex
	err    error // first violation, sticky
}

// New returns a governor for one evaluation, or nil when ctx is nil (or
// context.Background-like with no deadline), the budget is zero, and no
// fault script is armed — the no-op fast path.
func New(ctx context.Context, b Budget, inj *fault.Injector) *Governor {
	if inj == nil && b.IsZero() && (ctx == nil || (ctx.Done() == nil && ctx.Err() == nil)) {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Governor{ctx: ctx, budget: b, inj: inj}
	if b.Timeout > 0 {
		g.deadline = time.Now().Add(b.Timeout)
	}
	return g
}

// Err returns the sticky violation, typed as *AbortError, or nil.
func (g *Governor) Err() error {
	if g == nil || !g.failed.Load() {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// fail records the first violation and returns the sticky error.
func (g *Governor) fail(cause error, reason string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = &AbortError{Cause: cause, Reason: reason}
		g.failed.Store(true)
	}
	return g.err
}

// failErr makes an arbitrary error (an injected fault) sticky as-is.
func (g *Governor) failErr(err error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = err
		g.failed.Store(true)
	}
	return g.err
}

// CheckNow tests the context, deadline, and node budget immediately —
// no amortization. Used on query entry (an already-canceled context
// must return before any scan) and at coarse-grained operator
// boundaries.
func (g *Governor) CheckNow() error {
	if g == nil {
		return nil
	}
	if g.failed.Load() {
		return g.Err()
	}
	if err := g.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return g.fail(ErrBudgetExceeded, "context deadline exceeded")
		}
		return g.fail(ErrCanceled, err.Error())
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return g.fail(ErrBudgetExceeded, fmt.Sprintf("deadline %v exceeded", g.budget.Timeout))
	}
	if g.budget.MaxNodes > 0 {
		if n := g.nodes.Load(); n > g.budget.MaxNodes {
			return g.fail(ErrBudgetExceeded, fmt.Sprintf("scanned %d nodes (budget %d)", n, g.budget.MaxNodes))
		}
	}
	return nil
}

// tick amortizes CheckNow: the clock and context are consulted every
// checkInterval hits; budget counters (already updated by the caller)
// are compared on every call, which is two atomic loads.
func (g *Governor) tick(site fault.Site) error {
	if g.inj != nil {
		if err := g.inj.Hit(site); err != nil {
			return g.failErr(err)
		}
	}
	if g.failed.Load() {
		return g.Err()
	}
	if g.budget.MaxNodes > 0 {
		if n := g.nodes.Load(); n > g.budget.MaxNodes {
			return g.fail(ErrBudgetExceeded, fmt.Sprintf("scanned %d nodes (budget %d)", n, g.budget.MaxNodes))
		}
	}
	if g.ticks.Add(1)%checkInterval == 0 {
		return g.CheckNow()
	}
	return nil
}

// Poll is an amortized cancellation/deadline check with no fault hit
// and no budget charge — loop-progress insurance for operator loops
// that can spin long without scanning or emitting (merge advances,
// pair tests of the nested-loop joins).
func (g *Governor) Poll() error {
	if g == nil {
		return nil
	}
	if g.failed.Load() {
		return g.Err()
	}
	if g.ticks.Add(1)%checkInterval == 0 {
		return g.CheckNow()
	}
	return nil
}

// Scanned charges n scanned nodes at the given site and reports any
// governance violation. Operators call it where they count scanned
// nodes into their stats; a non-nil return must end the stream.
func (g *Governor) Scanned(site fault.Site, n int64) error {
	if g == nil {
		return nil
	}
	if n != 0 {
		g.nodes.Add(n)
	}
	return g.tick(site)
}

// Emitted marks one instance emission at the given site (a fault point
// and amortized cancellation check; emissions do not charge the output
// budget — only root-level results do, via Output).
func (g *Governor) Emitted(site fault.Site) error {
	if g == nil {
		return nil
	}
	return g.tick(site)
}

// Output charges n root-level result tuples against MaxOutput.
func (g *Governor) Output(n int64) error {
	if g == nil {
		return nil
	}
	out := g.out.Add(n)
	if g.budget.MaxOutput > 0 && out > g.budget.MaxOutput {
		return g.fail(ErrBudgetExceeded, fmt.Sprintf("produced %d results (budget %d)", out, g.budget.MaxOutput))
	}
	return g.tick(fault.SiteOutput)
}

// NodesScanned returns the nodes charged so far.
func (g *Governor) NodesScanned() int64 {
	if g == nil {
		return 0
	}
	return g.nodes.Load()
}

// Outputs returns the result tuples charged so far.
func (g *Governor) Outputs() int64 {
	if g == nil {
		return 0
	}
	return g.out.Load()
}

// Verdict classifies an evaluation outcome for the structured query
// log: "ok" on success, "canceled" / "budget_exceeded" for governed
// aborts, "shed" for admission-control refusals, "error" for
// everything else.
func Verdict(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrShed):
		return "shed"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrBudgetExceeded):
		return "budget_exceeded"
	default:
		return "error"
	}
}
