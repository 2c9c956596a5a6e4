package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// Per-query trace export: the OpStats tree of an executed plan, laid
// out as Chrome trace-event JSON (chrome://tracing, Perfetto, and
// speedscope all load it). Each operator becomes one complete ("X")
// span; children nest inside their parent's time range, so the span
// tree mirrors the operator sites of the query's EXPLAIN ANALYZE
// output. Wall-clock durations are real when the query ran with
// Analyze (per-operator timing); otherwise spans carry zero duration
// but still record the tree shape and work counters in their args.

// TraceEvent is one event of the Chrome trace-event format.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace is one query's span tree in Chrome trace-event JSON shape.
type Trace struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// NewTrace derives a trace from a query's stats tree. The root event
// spans the whole evaluation (total wall time); operator spans nest
// inside it, each sized by its recorded elapsed time (inclusive of
// children, as OpStats measures) and clamped to its parent. A nil
// stats tree (navigational evaluation, or an abort before planning)
// yields a trace with only the query-level span.
func NewTrace(queryID string, root *OpStats, total time.Duration) *Trace {
	t := &Trace{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"queryID": queryID},
	}
	totalUS := float64(total.Microseconds())
	t.TraceEvents = append(t.TraceEvents, TraceEvent{
		Name: "query " + queryID,
		Cat:  "query",
		Ph:   "X",
		Ts:   0,
		Dur:  totalUS,
		Pid:  1,
		Tid:  1,
	})
	if root != nil {
		rootDur := float64(root.Elapsed().Microseconds())
		if rootDur == 0 || rootDur > totalUS {
			rootDur = totalUS
		}
		appendSpans(t, root, 0, rootDur)
	}
	return t
}

// appendSpans lays the subtree rooted at s into [ts, ts+dur): the
// node's own span covers the whole window, and children are placed
// sequentially inside it, each sized by its recorded elapsed time.
func appendSpans(t *Trace, s *OpStats, ts, dur float64) {
	ev := TraceEvent{
		Name: s.Name,
		Cat:  "operator",
		Ph:   "X",
		Ts:   ts,
		Dur:  dur,
		Pid:  1,
		Tid:  1,
		Args: map[string]any{
			"detail":  s.Detail,
			"calls":   s.Calls(),
			"scanned": s.Scanned(),
			"emitted": s.Emitted(),
		},
	}
	if c := s.Comparisons(); c > 0 {
		ev.Args["comparisons"] = c
	}
	if k := s.Skipped(); k > 0 {
		ev.Args["skipped"] = k
	}
	t.TraceEvents = append(t.TraceEvents, ev)
	cursor := ts
	for _, c := range s.Children {
		cd := float64(c.Elapsed().Microseconds())
		if remaining := ts + dur - cursor; cd > remaining {
			cd = remaining
		}
		if cd < 0 {
			cd = 0
		}
		appendSpans(t, c, cursor, cd)
		cursor += cd
	}
}

// JSON marshals the trace.
func (t *Trace) JSON() []byte {
	b, err := json.Marshal(t)
	if err != nil {
		return nil
	}
	return b
}

// SpanNames returns the operator-span names in depth-first order
// (excluding the query-level wrapper span) — the site list tests match
// against EXPLAIN ANALYZE.
func (t *Trace) SpanNames() []string {
	var out []string
	for _, ev := range t.TraceEvents {
		if ev.Cat == "operator" {
			out = append(out, ev.Name)
		}
	}
	return out
}

// TraceStore retains the most recent traces keyed by query ID, for the
// daemon's GET /trace/{queryID}. Bounded: when full, the oldest trace
// is evicted.
type TraceStore struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*Trace
	order []string
}

// NewTraceStore returns a store retaining up to capacity traces.
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = 1
	}
	return &TraceStore{cap: capacity, byID: make(map[string]*Trace)}
}

// Put stores a trace under its query ID, evicting the oldest entry at
// capacity.
func (ts *TraceStore) Put(queryID string, t *Trace) {
	if ts == nil || t == nil || queryID == "" {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, exists := ts.byID[queryID]; !exists {
		for len(ts.order) >= ts.cap {
			evict := ts.order[0]
			ts.order = ts.order[1:]
			delete(ts.byID, evict)
		}
		ts.order = append(ts.order, queryID)
	}
	ts.byID[queryID] = t
}

// Get returns the trace stored under queryID.
func (ts *TraceStore) Get(queryID string) (*Trace, bool) {
	if ts == nil {
		return nil, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.byID[queryID]
	return t, ok
}

// Len returns the number of retained traces.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.byID)
}
