package obs

import (
	"encoding/json"
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

// NewTrace derives a trace from a query's record. The root event spans
// the whole evaluation (its latency); operator spans nest inside it,
// each sized by its recorded elapsed time (inclusive of children, as
// OpStats measures) and clamped to its parent. A fan-out's per-document
// records become child query spans, laid out like operator children. A
// record without a stats tree (navigational evaluation, or an abort
// before planning) contributes only its query-level span.
func NewTrace(r *QueryRecord) *Trace {
	t := &Trace{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"queryID": r.QueryID},
	}
	appendQuery(t, r, 0, float64(r.Latency.Microseconds()))
	return t
}

// appendQuery lays the record r into [ts, ts+dur): its query span, its
// operator tree, then its child records placed sequentially inside it.
func appendQuery(t *Trace, r *QueryRecord, ts, dur float64) {
	t.TraceEvents = append(t.TraceEvents, TraceEvent{
		Name: "query " + r.QueryID,
		Cat:  "query",
		Ph:   "X",
		Ts:   ts,
		Dur:  dur,
		Pid:  1,
		Tid:  1,
	})
	if r.Stats != nil {
		rootDur := float64(r.Stats.Elapsed().Microseconds())
		if rootDur == 0 || rootDur > dur {
			rootDur = dur
		}
		appendSpans(t, r.Stats, ts, rootDur)
	}
	cursor := ts
	for _, c := range r.Children {
		cd := fit(c.Latency, ts+dur-cursor)
		appendQuery(t, c, cursor, cd)
		cursor += cd
	}
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
		cd := fit(c.Elapsed(), ts+dur-cursor)
		appendSpans(t, c, cursor, cd)
		cursor += cd
	}
}

// fit sizes a child span by its elapsed time, clamped to what is left
// of its parent's window.
func fit(elapsed time.Duration, remaining float64) float64 {
	return max(min(float64(elapsed.Microseconds()), remaining), 0)
}

// JSON marshals the trace.
func (t *Trace) JSON() []byte {
	b, err := json.Marshal(t)
	if err != nil {
		return nil
	}
	return b
}
