package blossomtree

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"log/slog"
)

// operatorLines strips the "plan strategy: …" header off an
// ExplainAnalyze rendering, leaving the operator tree lines.
func operatorLines(explain string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimRight(explain, "\n"), "\n") {
		if strings.HasPrefix(line, "plan strategy:") {
			continue
		}
		out = append(out, line)
	}
	return out
}

// logLines decodes a JSON slog buffer into one map per record.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestQueryLogRecordsEvaluation(t *testing.T) {
	e := newBib(t)
	var buf bytes.Buffer
	res, err := e.QueryWith(`//book/title`, Options{
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID() == "" {
		t.Error("result should carry a query ID")
	}
	recs := logLines(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("log records = %d, want 1:\n%s", len(recs), buf.String())
	}
	r := recs[0]
	if r["level"] != "INFO" || r["msg"] != "query" {
		t.Errorf("record = %v", r)
	}
	if r["query_id"] != res.QueryID() {
		t.Errorf("log query_id = %v, result %q", r["query_id"], res.QueryID())
	}
	if r["verdict"] != "ok" || r["strategy"] == "" {
		t.Errorf("verdict/strategy = %v / %v", r["verdict"], r["strategy"])
	}
	if n, _ := r["nodes_scanned"].(float64); n <= 0 {
		t.Errorf("nodes_scanned = %v, want > 0", r["nodes_scanned"])
	}
	if n, _ := r["rows_out"].(float64); n != 4 {
		t.Errorf("rows_out = %v, want 4", r["rows_out"])
	}
	if _, slow := r["explain"]; slow {
		t.Error("fast query must not carry the explain payload")
	}
}

func TestSlowQueryCapturesExplainOnce(t *testing.T) {
	e := newBib(t)
	var buf bytes.Buffer
	opts := Options{
		Logger:             slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		Analyze:            true,
	}
	// Two offending queries: each must log exactly one Warn record with
	// exactly one EXPLAIN ANALYZE payload.
	res1, err := e.QueryWith(`//book//last`, opts)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.QueryWith(`//book[price<50]/title`, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := logLines(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("log records = %d, want 2:\n%s", len(recs), buf.String())
	}
	for i, res := range []*Result{res1, res2} {
		r := recs[i]
		if r["level"] != "WARN" || r["slow"] != true {
			t.Errorf("record %d not a slow-query Warn: %v", i, r)
		}
		explain, ok := r["explain"].(string)
		if !ok || explain == "" {
			t.Fatalf("record %d missing explain payload: %v", i, r)
		}
		// The payload is the query's own EXPLAIN ANALYZE operator tree:
		// same lines, in order (the log omits the strategy header — the
		// record's own strategy field carries it).
		want := strings.Join(operatorLines(res.ExplainAnalyze()), "\n")
		if got := strings.TrimRight(explain, "\n"); got != want {
			t.Errorf("record %d explain drifted.\n--- log ---\n%s\n--- ExplainAnalyze ---\n%s", i, got, want)
		}
	}
	// Exactly once per offending query, not duplicated across records.
	if n := strings.Count(buf.String(), `"explain"`); n != 2 {
		t.Errorf("explain payloads = %d, want 2 (one per slow query):\n%s", n, buf.String())
	}
}

func TestSlowQueryThresholdFiltersFastQueries(t *testing.T) {
	e := newBib(t)
	var buf bytes.Buffer
	_, err := e.QueryWith(`//book/title`, Options{
		Logger:             slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowQueryThreshold: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := logLines(t, &buf)
	if len(recs) != 1 || recs[0]["level"] != "INFO" || recs[0]["slow"] != nil {
		t.Errorf("fast query under a high threshold should log Info without slow/explain: %v", recs)
	}
}

func TestTraceMatchesExplainAnalyze(t *testing.T) {
	e := newBib(t)
	res, err := e.QueryWith(`//book//last`, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := e.TraceJSON(res.QueryID())
	if !ok {
		t.Fatalf("no trace stored for %q", res.QueryID())
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "operator" {
			spans = append(spans, ev.Name)
		}
	}
	// The span tree mirrors EXPLAIN ANALYZE: one operator span per
	// explain line, depth-first, same names in the same order.
	explain := operatorLines(res.ExplainAnalyze())
	if len(spans) != len(explain) {
		t.Fatalf("spans = %v, explain lines = %v", spans, explain)
	}
	for i, name := range spans {
		if !strings.Contains(explain[i], name) {
			t.Errorf("explain line %d %q does not contain span %q", i, explain[i], name)
		}
	}
}

func TestQueryIDsUniqueAndPinnable(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewQueryID()
		if seen[id] {
			t.Fatalf("duplicate query ID %q", id)
		}
		seen[id] = true
	}
	e := newBib(t)
	res, err := e.QueryWith(`//book/title`, Options{QueryID: "pinned-1"})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID() != "pinned-1" {
		t.Errorf("QueryID = %q, want the pinned ID", res.QueryID())
	}
	if _, ok := e.TraceJSON("pinned-1"); !ok {
		t.Error("trace should be stored under the pinned ID")
	}
}

func TestWritePrometheusExposesQueryHistogram(t *testing.T) {
	e := newBib(t)
	if _, err := e.Query(`//book/title`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE blossomtree_query_duration_seconds histogram",
		`blossomtree_query_duration_seconds_bucket{le="+Inf"}`,
		"blossomtree_query_duration_seconds_count",
		"blossomtree_queries_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestQueryLogNavReason: a fragment-outside query must carry its
// fallback routing reason both on the result and in the query-log
// record (nav-fallback entries used to omit it, leaving the log unable
// to say why a query skipped the planner).
func TestQueryLogNavReason(t *testing.T) {
	e := newBib(t)
	var buf bytes.Buffer
	res, err := e.QueryWith(`//book[contains(title, "Maximum")]`, Options{
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NavReason() == "" {
		t.Fatal("fragment-outside query has no NavReason")
	}
	recs := logLines(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("log records = %d, want 1:\n%s", len(recs), buf.String())
	}
	r := recs[0]
	reason, _ := r["nav_reason"].(string)
	if reason != res.NavReason() {
		t.Errorf("log nav_reason = %q, result says %q", reason, res.NavReason())
	}

	// Planned queries must not carry the field at all.
	buf.Reset()
	if _, err := e.QueryWith(`//book/title`, Options{
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)),
	}); err != nil {
		t.Fatal(err)
	}
	if _, present := logLines(t, &buf)[0]["nav_reason"]; present {
		t.Error("planned query log record carries nav_reason")
	}
}
