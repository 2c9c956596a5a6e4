package obs

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// statsTree builds Join(ScanA, Filter(ScanB)) — a shape with both a
// leaf sibling and a nested child.
func statsTree() *OpStats {
	root := NewOpStats("Join", "a//b")
	scanA := NewOpStats("ScanA", "NoK0")
	filter := NewOpStats("Filter", "pred")
	scanB := NewOpStats("ScanB", "NoK1")
	filter.Adopt(scanB)
	root.Adopt(scanA, filter)
	scanA.AddScanned(10)
	scanB.AddScanned(20)
	root.AddEmitted(3)
	return root
}

// spanNames returns the names of a trace's spans of category cat, in
// depth-first order.
func spanNames(tr *Trace, cat string) []string {
	var out []string
	for _, ev := range tr.TraceEvents {
		if ev.Cat == cat {
			out = append(out, ev.Name)
		}
	}
	return out
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace(&QueryRecord{QueryID: "q-1", Stats: statsTree(), Latency: 5 * time.Millisecond})
	// Depth-first operator order, matching EXPLAIN ANALYZE's rendering.
	want := []string{"Join", "ScanA", "Filter", "ScanB"}
	if got := spanNames(tr, "operator"); !reflect.DeepEqual(got, want) {
		t.Errorf("operator spans = %v, want %v", got, want)
	}
	// One query-level wrapper plus the four operators.
	if len(tr.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(tr.TraceEvents))
	}
	q := tr.TraceEvents[0]
	if q.Cat != "query" || q.Ph != "X" || q.Dur != 5000 {
		t.Errorf("query span = %+v", q)
	}
	// Spans nest: every operator stays inside the query window, and the
	// root operator covers the whole of it (zero-elapsed tree spreads to
	// the wall time).
	for _, ev := range tr.TraceEvents[1:] {
		if ev.Ts < 0 || ev.Ts+ev.Dur > q.Dur+1e-9 {
			t.Errorf("span %s [%g, %g] escapes query window %g", ev.Name, ev.Ts, ev.Ts+ev.Dur, q.Dur)
		}
	}
	// Work counters ride along in args even without Analyze timing.
	var scanA *TraceEvent
	for i := range tr.TraceEvents {
		if tr.TraceEvents[i].Name == "ScanA" {
			scanA = &tr.TraceEvents[i]
		}
	}
	if scanA == nil || scanA.Args["scanned"] != int64(10) {
		t.Errorf("ScanA args = %+v", scanA)
	}
}

func TestTraceNilStats(t *testing.T) {
	tr := NewTrace(&QueryRecord{QueryID: "q-nav", Latency: time.Millisecond})
	if len(tr.TraceEvents) != 1 || tr.TraceEvents[0].Cat != "query" {
		t.Errorf("nil-stats trace = %+v", tr.TraceEvents)
	}
}

// TestTraceFanOut: a fan-out's record lays its per-document records out
// as child query spans inside its own, each with its operator tree, the
// way operator children nest.
func TestTraceFanOut(t *testing.T) {
	parent := &QueryRecord{QueryID: "q-3", Latency: 3 * time.Millisecond, Children: []*QueryRecord{
		{QueryID: "q-3-a.xml", Latency: time.Millisecond, Stats: statsTree()},
		{QueryID: "q-3-b.xml", Latency: 5 * time.Millisecond},
	}}
	tr := NewTrace(parent)
	if got, want := spanNames(tr, "query"), []string{"query q-3", "query q-3-a.xml", "query q-3-b.xml"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("query spans = %v, want %v", got, want)
	}
	if got := spanNames(tr, "operator"); len(got) != 4 {
		t.Errorf("operator spans = %v, want a.xml's four", got)
	}
	a, b := tr.TraceEvents[1], tr.TraceEvents[len(tr.TraceEvents)-1]
	if a.Ts != 0 || a.Dur != 1000 || b.Ts != 1000 || b.Dur != 2000 {
		t.Errorf("child spans a=[%g+%g] b=[%g+%g], want [0+1000] [1000+2000] (b clamped to the parent)", a.Ts, a.Dur, b.Ts, b.Dur)
	}
}

func TestTraceJSONShape(t *testing.T) {
	b := NewTrace(&QueryRecord{QueryID: "q-2", Stats: statsTree(), Latency: time.Millisecond}).JSON()
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(decoded.TraceEvents) != 5 {
		t.Errorf("decoded events = %d, want 5", len(decoded.TraceEvents))
	}
	if decoded.OtherData["queryID"] != "q-2" {
		t.Errorf("otherData = %v", decoded.OtherData)
	}
	// Chrome's loader requires ph and numeric ts/dur on every event.
	for _, ev := range decoded.TraceEvents {
		if ev["ph"] != "X" {
			t.Errorf("event ph = %v, want X", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event ts not numeric: %v", ev["ts"])
		}
	}
}
