package exec

// Query-stream telemetry: every evaluation — Eval, EvalBatch workers,
// EvalAllDocs fan-out — flows through evalExpr, so the hooks here give
// the CLI, the benchmark and the blossomd daemon one shared
// pipeline: a latency observation into the process-wide
// query-duration histogram, a span-tree trace derived from the plan's
// OpStats into the engine's trace ring, and (given a logger) a
// structured query-log record with slow-query EXPLAIN ANALYZE capture.

import (
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

// telemetry accumulates one evaluation's observable facts; evalExpr
// fills the fields in as the evaluation progresses and emit runs in
// its defer, on success, error and abort paths alike.
type telemetry struct {
	state    *State // the evaluating engine's, for its trace ring
	queryID  string
	src      string // query text
	strategy string // preset for navigational ("XH"); else read from plan
	plan     *plan.Plan
	gov      *gov.Governor
	cached   bool // plan served from the compiled-plan cache
	start    time.Time
	// navReason carries the fragment violation that routed the query to
	// the navigational fallback ("" for planned runs).
	navReason string
	// replanned/drift mark an evaluation running a replanned template
	// (estimates drifted from its predecessor's first run by drift×).
	replanned bool
	drift     float64
}

// emit records the evaluation into the histogram, the trace store, and
// the query log.
func (t *telemetry) emit(opts plan.Options, res *Result, err error) {
	elapsed := time.Since(t.start)
	obs.Default.Histogram(obs.HistQueryDuration, obs.LatencyBuckets).ObserveDuration(elapsed)

	st := t.statsTree(err)
	t.state.Traces.Put(t.queryID, obs.NewTrace(t.queryID, st, elapsed))

	if opts.Logger == nil {
		return
	}
	entry := obs.QueryLogEntry{
		QueryID:      t.queryID,
		QueryHash:    obs.QueryHash(t.src),
		Strategy:     t.strategyName(),
		Verdict:      gov.Verdict(err),
		NodesScanned: st.TotalScanned(),
		RowsOut:      rowsOut(res),
		Latency:      elapsed,
		Cached:       t.cached,
		NavReason:    t.navReason,
		Replanned:    t.replanned,
		Drift:        t.drift,
	}
	if st == nil {
		entry.NodesScanned = t.gov.NodesScanned()
	}
	if err != nil {
		entry.Err = err.Error()
	}
	if st != nil {
		entry.Explain = func() string { return st.Render(true) }
	}
	ql := obs.QueryLog{
		Logger:        opts.Logger,
		SlowThreshold: opts.SlowQueryThreshold,
		Registry:      obs.Default,
	}
	ql.Record(entry)
}

// statsTree returns the evaluation's operator-statistics tree: the
// executed plan's tree, or the partial tree a governed abort carries.
func (t *telemetry) statsTree(err error) *obs.OpStats {
	if t.plan != nil {
		if st := t.plan.StatsTree(); st != nil {
			return st
		}
	}
	if st, ok := gov.StatsOf(err); ok {
		return st
	}
	return nil
}

// strategyName resolves the executed strategy for the log record.
func (t *telemetry) strategyName() string {
	if t.plan != nil {
		return t.plan.Strategy.String()
	}
	return t.strategy
}

// rowsOut counts the evaluation's result rows by the public Result.Len
// rule: binding rows for FLWOR and constructed output, otherwise result
// nodes. A FLWOR whose where clause keeps no row counts 0, however many
// instances the plan produced.
func rowsOut(res *Result) int64 {
	if res == nil {
		return 0
	}
	if len(res.Envs) > 0 || res.Output != nil {
		return int64(len(res.Envs))
	}
	return int64(len(res.Nodes))
}
