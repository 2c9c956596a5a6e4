package obs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"sync"
	"time"
)

// One record per evaluation: the executor fills a QueryRecord as the
// query runs, and every reader reads that record — the structured query
// log (Log), the engine's ring of recent queries (RecordRing), the trace
// export (NewTrace, rendered on request) and the Result the caller gets.

// QueryHash returns a short stable content hash of a query text, so
// logs can group repeated queries without storing (possibly sensitive
// or huge) query bodies.
func QueryHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:8])
}

// QueryRecord is one evaluation's observable facts.
type QueryRecord struct {
	QueryID   string
	QueryHash string
	// Strategy is the executed join strategy ("PL", "TS", "XH", …),
	// "scatter" for an all-documents fan-out, or "" when the query
	// failed before planning.
	Strategy string
	// Verdict is the governance outcome: "ok", "canceled",
	// "budget_exceeded", "shed", or "error".
	Verdict string
	// Cached reports whether the physical plan was served from the
	// compiled-plan cache rather than compiled for this evaluation.
	Cached bool
	// NavReason says why the query routed to the navigational fallback
	// instead of a BlossomTree plan; "" for planned queries.
	NavReason string
	// Replanned reports whether the plan was recompiled with observed
	// cardinalities (its estimates drifted past the threshold) before
	// this evaluation; Drift is the est/act ratio that triggered it.
	Replanned    bool
	Drift        float64
	NodesScanned int64
	RowsOut      int64
	Latency      time.Duration
	// Err is the evaluation error message, "" on success.
	Err string
	// Stats is the executed plan's operator-statistics tree, or the
	// partial tree a governed abort carries; nil for navigational
	// evaluation.
	Stats *OpStats
	// Children are the per-document records of an all-documents
	// fan-out, in URI order.
	Children []*QueryRecord
}

// Log emits the record as one slog record. Evaluations at or past slow
// (when slow > 0) log at Warn with their EXPLAIN ANALYZE tree attached
// and count toward MetricSlowQueries; everything else logs at Info. A
// nil logger logs nothing.
func (r *QueryRecord) Log(l *slog.Logger, slow time.Duration) {
	if l == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("query_id", r.QueryID),
		slog.String("query_hash", r.QueryHash),
		slog.String("strategy", r.Strategy),
		slog.String("verdict", r.Verdict),
		slog.Int64("nodes_scanned", r.NodesScanned),
		slog.Int64("rows_out", r.RowsOut),
		slog.Duration("latency", r.Latency),
	}
	if r.Cached {
		attrs = append(attrs, slog.Bool("cached", true))
	}
	if r.NavReason != "" {
		attrs = append(attrs, slog.String("nav_reason", r.NavReason))
	}
	if r.Replanned {
		attrs = append(attrs, slog.Bool("replanned", true))
	}
	if r.Drift > 0 {
		attrs = append(attrs, slog.Float64("drift", r.Drift))
	}
	if r.Err != "" {
		attrs = append(attrs, slog.String("error", r.Err))
	}
	level := slog.LevelInfo
	if slow > 0 && r.Latency >= slow {
		level = slog.LevelWarn
		attrs = append(attrs, slog.Bool("slow", true))
		if r.Stats != nil {
			attrs = append(attrs, slog.String("explain", r.Stats.Render(true)))
		}
		Default.Add(MetricSlowQueries, 1)
	}
	l.LogAttrs(context.Background(), level, "query", attrs...)
}

// RecordRing retains the most recent records keyed by query ID, for
// trace export (the daemon's GET /trace/{queryID}). Bounded: when full,
// the oldest record is evicted.
type RecordRing struct {
	mu   sync.Mutex
	cap  int
	buf  []*QueryRecord // grows to cap, then overwrites at next
	next int            // the slot the next new ID takes once full
	byID map[string]int // query ID → slot
}

// NewRecordRing returns a ring retaining up to capacity records.
func NewRecordRing(capacity int) *RecordRing {
	return &RecordRing{cap: max(capacity, 1), byID: make(map[string]int)}
}

// Put stores a record under its query ID, evicting the oldest record at
// capacity; a record under an ID already held replaces it in place.
func (r *RecordRing) Put(rec *QueryRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byID[rec.QueryID]
	switch {
	case ok:
	case len(r.buf) < r.cap:
		i = len(r.buf)
		r.buf = append(r.buf, nil)
	default:
		i = r.next
		delete(r.byID, r.buf[i].QueryID)
		r.next = (i + 1) % r.cap
	}
	r.buf[i] = rec
	r.byID[rec.QueryID] = i
}

// Get returns the record stored under queryID.
func (r *RecordRing) Get(queryID string) (*QueryRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byID[queryID]
	if !ok {
		return nil, false
	}
	return r.buf[i], true
}
