package exec

// Query-stream telemetry: every evaluation — Eval*, each document of an
// EvalAllDocs fan-out — flows through evalExpr, which fills one
// obs.QueryRecord as it runs and publishes it, so the CLI, the
// benchmark and the blossomd daemon share one pipeline: the
// process-wide counters and query-duration histogram, the engine's ring
// of recent records (traces render from it on request), and (given a
// logger) a structured query-log record with slow-query EXPLAIN ANALYZE
// capture.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
)

var (
	queryIDSeq atomic.Uint64
	// queryIDEpoch distinguishes processes: IDs stay unique across
	// daemon restarts, so a stale /trace URL cannot alias a new query.
	queryIDEpoch = fmt.Sprintf("%08x", uint32(time.Now().UnixNano()))
)

// NewQueryID returns a process-unique query identifier ("q-<epoch>-<n>").
func NewQueryID() string {
	return fmt.Sprintf("q-%s-%06d", queryIDEpoch, queryIDSeq.Add(1))
}

// publish completes an evaluation's record — verdict, error, stats tree,
// work and rows — and hands it to every reader: the registry's counters
// and duration histogram, the ring of recent records, and the query
// log. pl is the executed plan (nil for navigational evaluation and for
// failures before planning).
func (st *State) publish(rec *obs.QueryRecord, opts plan.Options, pl *plan.Plan, res *Result, err error) {
	obs.Default.Add(obs.MetricQueries, 1)
	obs.Default.Add(obs.MetricQueryNanos, rec.Latency.Nanoseconds())
	obs.Default.Histogram(obs.HistQueryDuration, obs.LatencyBuckets).ObserveDuration(rec.Latency)

	rec.Verdict = gov.Verdict(err)
	if pl != nil {
		rec.Stats = pl.StatsTree()
	}
	if rec.Stats == nil {
		rec.Stats, _ = gov.StatsOf(err)
	}
	work := rec.Stats.Totals()
	rec.NodesScanned = work.Scanned
	if rec.Stats == nil {
		rec.NodesScanned = opts.Gov.NodesScanned()
	}
	if res != nil {
		rec.RowsOut = int64(res.Len())
	}
	if err != nil {
		rec.Err = err.Error()
		obs.Default.Add(obs.MetricQueryErrors, 1)
		if errors.Is(err, gov.ErrCanceled) || errors.Is(err, gov.ErrBudgetExceeded) {
			obs.Default.Add(obs.MetricQueryAborts, 1)
		}
	} else if pl != nil {
		obs.Default.Add(obs.MetricNodesScanned, work.Scanned)
		obs.Default.Add(obs.MetricInstancesOut, work.Emitted)
		obs.Default.Add(obs.MetricComparisons, work.Comparisons)
		obs.Default.Add(obs.MetricOperatorCalls, work.Calls)
	}
	st.Recent.Put(rec)
	rec.Log(opts.Logger, opts.SlowQueryThreshold)
}
