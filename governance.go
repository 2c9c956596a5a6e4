package blossomtree

import (
	"time"

	"blossomtree/internal/gov"
)

// Query governance: every evaluation can carry a context.Context (for
// cancellation and deadlines) and a Budget (for resource bounds). The
// operators check both cooperatively with amortized polling, so
// governance costs nothing measurable on the hot path; a violation
// aborts the query with one of the typed errors below, carrying the
// partial per-operator statistics recorded up to the abort (see
// AbortStats).

// Typed causes of a governed abort, tested with errors.Is.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = gov.ErrCanceled
	// ErrBudgetExceeded reports that the query exceeded its Budget or
	// its deadline.
	ErrBudgetExceeded = gov.ErrBudgetExceeded
	// ErrShed reports that admission control refused the query before
	// evaluation began (the serving tier is overloaded or the tenant is
	// over quota); the daemon maps it to HTTP 429 with a Retry-After
	// hint.
	ErrShed = gov.ErrShed
)

// Budget bounds one query evaluation. Zero values mean unlimited.
type Budget struct {
	// MaxNodes caps the document/index nodes the physical operators may
	// scan (the engine's I/O proxy).
	MaxNodes int64
	// MaxOutput caps the result tuples the query may produce.
	MaxOutput int64
	// Timeout caps wall-clock evaluation time. It composes with any
	// context deadline; whichever expires first aborts the query.
	Timeout time.Duration
}

func (b Budget) toGov() gov.Budget {
	return gov.Budget{MaxNodes: b.MaxNodes, MaxOutput: b.MaxOutput, Timeout: b.Timeout}
}

// Verdict classifies an evaluation outcome as the query log records
// it: "ok" on success, "canceled" for context cancellation,
// "budget_exceeded" for deadline/budget aborts, "shed" for
// admission-control refusals, "error" otherwise.
func Verdict(err error) string { return gov.Verdict(err) }

// AbortStats returns the partial EXPLAIN ANALYZE recorded up to a
// governed abort: the per-operator statistics tree (actual nodes
// scanned, instances emitted, comparisons per operator) of the aborted
// plan, rendered like Result.ExplainAnalyze. The second return is false
// when err is not a governed abort or the abort happened before any
// operator ran.
func AbortStats(err error) (string, bool) {
	st, ok := gov.StatsOf(err)
	if !ok {
		return "", false
	}
	return st.Render(true), true
}
