package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestPrometheusGolden pins the text exposition byte-for-byte: a fresh
// registry with deterministic counters and histogram observations must
// render exactly the golden file, so format drift (family ordering,
// float formatting, cumulative bucket math) is caught by diff rather
// than by a scraper.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Add(MetricQueries, 42)
	r.Add(MetricQueryErrors, 3)
	r.Add("weird-name.0", 7) // exercises the [a-zA-Z0-9_:] sanitizer

	h := r.Histogram(HistQueryDuration, []float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 0.5, 30} {
		h.Observe(v)
	}

	// Labeled series render inside the family of their unlabeled
	// aggregate: unlabeled line first (scrapers keyed on the bare name
	// keep working), then the per-value series sorted with "other" last.
	r.Add(MetricQueriesShed, 9)
	r.AddLabeled(MetricQueriesShed, "tenant", "acme", 5)
	r.AddLabeled(MetricQueriesShed, "tenant", "zeta", 3)
	r.AddLabeled(MetricQueriesShed, "tenant", "", 1) // empty value folds into "other"
	// A labeled family with no unlabeled counterpart renders standalone.
	r.AddLabeled("replica_lag_total", "replica", "r1", 2)

	got := promText(r)
	path := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/obs -run TestPrometheusGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("Prometheus exposition drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestPrometheusHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(10)
	text := promText(r)
	for _, line := range []string{
		"# TYPE blossomtree_lat histogram",
		`blossomtree_lat_bucket{le="1"} 1`,
		`blossomtree_lat_bucket{le="2"} 2`,
		`blossomtree_lat_bucket{le="+Inf"} 3`,
		"blossomtree_lat_sum 12",
		"blossomtree_lat_count 3",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("exposition missing %q:\n%s", line, text)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"queries_total": "blossomtree_queries_total",
		"a.b/c-d":       "blossomtree_a_b_c_d",
		"ns:metric":     "blossomtree_ns:metric",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promText renders the registry's exposition into a string.
func promText(r *Registry) string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}
