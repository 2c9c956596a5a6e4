package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestQueryHashStable(t *testing.T) {
	a, b := QueryHash("//book/title"), QueryHash("//book/title")
	if a != b || len(a) != 16 {
		t.Errorf("QueryHash not stable 16-hex: %q vs %q", a, b)
	}
	if QueryHash("//other") == a {
		t.Error("distinct queries should hash differently")
	}
}

func TestQueryLogLevelsAndSlowCapture(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	before := Default.Counter(MetricSlowQueries).Load()
	rec := &QueryRecord{
		QueryID:   "q-1",
		QueryHash: QueryHash("//a"),
		Strategy:  "PL",
		Verdict:   "ok",
		Latency:   time.Millisecond,
		Stats:     NewOpStats("Join", "a//b").Adopt(NewOpStats("Scan", "NoK0")),
	}
	rec.Log(logger, 100*time.Millisecond)

	rec.QueryID = "q-2"
	rec.Latency = 200 * time.Millisecond
	rec.Log(logger, 100*time.Millisecond)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var fast, slow map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &fast); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &slow); err != nil {
		t.Fatal(err)
	}
	if fast["level"] != "INFO" || fast["slow"] != nil || fast["explain"] != nil {
		t.Errorf("fast query record = %v", fast)
	}
	if slow["level"] != "WARN" || slow["slow"] != true {
		t.Errorf("slow query record = %v", slow)
	}
	// The slow record's explain is its own stats tree, rendered as
	// EXPLAIN ANALYZE renders it.
	if slow["explain"] != rec.Stats.Render(true) {
		t.Errorf("slow record explain = %v, want %q", slow["explain"], rec.Stats.Render(true))
	}
	if got := Default.Counter(MetricSlowQueries).Load() - before; got != 1 {
		t.Errorf("%s moved by %d, want 1", MetricSlowQueries, got)
	}
	if fast["query_hash"] != QueryHash("//a") || fast["strategy"] != "PL" {
		t.Errorf("missing identity fields: %v", fast)
	}
}

func TestQueryLogNilSafety(t *testing.T) {
	(&QueryRecord{QueryID: "q"}).Log(nil, time.Nanosecond) // must not panic
	// A slow record without a stats tree logs without an explain.
	var buf bytes.Buffer
	(&QueryRecord{QueryID: "q", Latency: time.Second}).Log(slog.New(slog.NewJSONHandler(&buf, nil)), time.Nanosecond)
	if strings.Contains(buf.String(), "explain") || !strings.Contains(buf.String(), `"slow":true`) {
		t.Errorf("slow record without stats = %s", buf.String())
	}
}

func TestRecordRingEviction(t *testing.T) {
	ring := NewRecordRing(3)
	retained := func(want ...bool) {
		t.Helper()
		for i, w := range want {
			if _, ok := ring.Get(fmt.Sprintf("q-%d", i)); ok != w {
				t.Errorf("q-%d retained = %v, want %v", i, ok, w)
			}
		}
	}
	for i := 0; i < 5; i++ {
		ring.Put(&QueryRecord{QueryID: fmt.Sprintf("q-%d", i)})
	}
	retained(false, false, true, true, true) // oldest evicted first
	// Overwriting an existing ID replaces it in place: no eviction.
	again := &QueryRecord{QueryID: "q-2"}
	ring.Put(again)
	if got, _ := ring.Get("q-2"); got != again {
		t.Error("overwrite did not replace the record")
	}
	retained(false, false, true, true, true)
	// The next new ID evicts the oldest slot, q-2's.
	ring.Put(&QueryRecord{QueryID: "q-5"})
	retained(false, false, false, true, true, true)
}
