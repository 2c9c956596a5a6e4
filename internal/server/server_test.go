package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"blossomtree"
	"blossomtree/internal/fault"
	"blossomtree/internal/obs"
)

const bib = `<bib>
<book year="1994"><title>Maximum Security</title><price>39</price></book>
<book year="1997"><title>The Art of Computer Programming</title>
 <author><last>Knuth</last><first>Donald</first></author><price>120</price></book>
<book year="2003"><title>Terrorist Hunter</title><price>25</price></book>
<book year="1984"><title>TeX Book</title>
 <author><last>Knuth</last><first>Donald</first></author><price>30</price></book>
</bib>`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	e := blossomtree.NewEngine()
	if err := e.LoadString("bib.xml", bib); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Engine: e, MaxRequestTimeout: 5 * time.Second}))
	t.Cleanup(ts.Close)
	return ts
}

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (int, QueryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpRes, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpRes.Body.Close()
	var res QueryResponse
	if err := json.NewDecoder(httpRes.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return httpRes.StatusCode, res
}

func TestQueryEndpoint(t *testing.T) {
	ts := newTestServer(t)
	status, res := postQuery(t, ts, QueryRequest{Query: `//book[price<50]/title`, Explain: true})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %+v", status, res)
	}
	if res.Count != 3 || len(res.Nodes) != 3 {
		t.Errorf("count = %d, nodes = %d, want 3", res.Count, len(res.Nodes))
	}
	if res.QueryID == "" || res.TraceURL != "/trace/"+res.QueryID {
		t.Errorf("query_id = %q, trace_url = %q", res.QueryID, res.TraceURL)
	}
	if res.Verdict != "ok" || res.Error != "" {
		t.Errorf("verdict = %q, error = %q", res.Verdict, res.Error)
	}
	if res.Strategy == "" || strings.Contains(res.Strategy, "\n") {
		t.Errorf("strategy = %q, want a single-line strategy name", res.Strategy)
	}
	if res.Explain == "" {
		t.Error("explain requested but missing")
	}
}

func TestQueryEndpointFLWOR(t *testing.T) {
	ts := newTestServer(t)
	status, res := postQuery(t, ts, QueryRequest{Query: `for $b in doc("bib.xml")//book
		where $b/price < 50 return $b/title`})
	if status != http.StatusOK || res.Count != 3 {
		t.Fatalf("status = %d, count = %d, want 200/3", status, res.Count)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
	if !strings.Contains(res.Rows[0]["b"], "<title>") {
		t.Errorf("row binding = %v", res.Rows[0])
	}
}

// TestQueryEndpointVectorizedIsAuto: the deprecated "vectorized" strategy
// is still accepted and answers with Auto's plan.
func TestQueryEndpointVectorizedIsAuto(t *testing.T) {
	ts := newTestServer(t)
	_, auto := postQuery(t, ts, QueryRequest{Query: `//book//last`, Strategy: "auto"})
	status, res := postQuery(t, ts, QueryRequest{Query: `//book//last`, Strategy: "vectorized"})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %+v", status, res)
	}
	if res.Strategy != auto.Strategy || res.Count != auto.Count {
		t.Errorf("vectorized: strategy %q, count %d; auto: strategy %q, count %d",
			res.Strategy, res.Count, auto.Strategy, auto.Count)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts := newTestServer(t)

	status, res := postQuery(t, ts, QueryRequest{Query: `//book[`})
	if status != http.StatusUnprocessableEntity || res.Error == "" || res.Verdict != "error" {
		t.Errorf("parse error: status = %d, %+v", status, res)
	}
	// A failed query is still attributable: it has an ID and a trace URL.
	if res.QueryID == "" {
		t.Error("failed query should carry a query ID")
	}

	status, res = postQuery(t, ts, QueryRequest{Query: ``})
	if status != http.StatusBadRequest {
		t.Errorf("missing query: status = %d", status)
	}

	httpRes, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	httpRes.Body.Close()
	if httpRes.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status = %d", httpRes.StatusCode)
	}

	// A budget the query cannot fit in maps to 408 with the governance
	// verdict.
	status, res = postQuery(t, ts, QueryRequest{Query: `//book//last`, MaxNodes: 1})
	if status != http.StatusRequestTimeout || res.Verdict != "budget_exceeded" {
		t.Errorf("budget abort: status = %d, %+v", status, res)
	}
}

// TestQueryEndpointShed: a tenant over its quota is refused with 429, a
// Retry-After hint in both header and body, and a "shed" verdict.
func TestQueryEndpointShed(t *testing.T) {
	e := blossomtree.NewEngine()
	if err := e.LoadString("bib.xml", bib); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{
		Engine:    e,
		Admission: NewAdmission(AdmissionConfig{TenantQPS: 0.001, TenantBurst: 1}),
	}))
	defer ts.Close()

	// First query spends the tenant's only token; the second sheds.
	if status, res := postQuery(t, ts, QueryRequest{Query: `//book/title`}); status != http.StatusOK {
		t.Fatalf("first query status = %d, body %+v", status, res)
	}
	body, _ := json.Marshal(QueryRequest{Query: `//book/title`})
	httpRes, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpRes.Body.Close()
	if httpRes.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query status = %d, want 429", httpRes.StatusCode)
	}
	if ra := httpRes.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-second hint", ra)
	}
	var res QueryResponse
	if err := json.NewDecoder(httpRes.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "shed" || res.Error == "" || res.RetryAfterMS <= 0 {
		t.Errorf("shed response = %+v", res)
	}
	if res.QueryID == "" {
		t.Error("shed query should still carry a query ID")
	}
}

// TestQueryEndpointInjectedShed: a deterministic admission fault sheds
// exactly the k-th admission decision.
func TestQueryEndpointInjectedShed(t *testing.T) {
	e := blossomtree.NewEngine()
	if err := e.LoadString("bib.xml", bib); err != nil {
		t.Fatal(err)
	}
	inj := fault.New().FailAt(fault.SiteAdmission, 2, nil)
	ts := httptest.NewServer(New(Config{
		Engine:    e,
		Admission: NewAdmission(AdmissionConfig{Fault: inj}),
	}))
	defer ts.Close()

	if status, _ := postQuery(t, ts, QueryRequest{Query: `//book/title`}); status != http.StatusOK {
		t.Fatalf("first query status = %d, want 200", status)
	}
	status, res := postQuery(t, ts, QueryRequest{Query: `//book/title`})
	if status != http.StatusTooManyRequests || res.Verdict != "shed" {
		t.Errorf("injected shed: status = %d, %+v", status, res)
	}
	if status, _ := postQuery(t, ts, QueryRequest{Query: `//book/title`}); status != http.StatusOK {
		t.Errorf("third query status = %d, want 200 (fault fires once)", status)
	}
}

// TestQueryEndpointClientCanceled: a request whose own context is gone
// answers 499 (client closed request), distinct from the 408 budget
// abort — load balancers must not count client disconnects as server
// timeouts.
func TestQueryEndpointClientCanceled(t *testing.T) {
	e := blossomtree.NewEngine()
	if err := e.LoadString("bib.xml", bib); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Engine: e})
	body, _ := json.Marshal(QueryRequest{Query: `//book/title`})
	req := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	req = req.WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("canceled request status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	var res QueryResponse
	if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "canceled" || res.Error == "" {
		t.Errorf("canceled response = %+v", res)
	}
}

// TestQueryEndpointAllDocuments: the all-documents form returns the
// merged per-document results in URI order.
func TestQueryEndpointAllDocuments(t *testing.T) {
	e := blossomtree.NewEngine()
	for uri, doc := range map[string]string{
		"a.xml": `<bib><book><title>A</title><price>10</price></book></bib>`,
		"b.xml": `<bib><book><title>B</title><price>20</price></book></bib>`,
		"c.xml": `<bib><book><title>C</title><price>30</price></book></bib>`,
	} {
		if err := e.LoadString(uri, doc); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(Config{Engine: e}))
	defer ts.Close()

	status, res := postQuery(t, ts, QueryRequest{Query: `//book/title`, AllDocuments: true})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %+v", status, res)
	}
	if res.Count != 3 || len(res.Nodes) != 3 {
		t.Fatalf("count = %d, nodes = %v, want 3 titles", res.Count, res.Nodes)
	}
	// URI-ordered gather: a.xml, b.xml, c.xml.
	for i, want := range []string{"<title>A</title>", "<title>B</title>", "<title>C</title>"} {
		if res.Nodes[i] != want {
			t.Errorf("nodes[%d] = %q, want %q", i, res.Nodes[i], want)
		}
	}
	if res.Strategy != "scatter" {
		t.Errorf("strategy = %q, want scatter", res.Strategy)
	}

	// The reply's trace URL names the fan-out: one query span for it and
	// one per document, each document's under its own ID.
	httpRes, err := http.Get(ts.URL + res.TraceURL)
	if err != nil {
		t.Fatal(err)
	}
	defer httpRes.Body.Close()
	if httpRes.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", res.TraceURL, httpRes.StatusCode)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(httpRes.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "query" {
			spans = append(spans, ev.Name)
		}
	}
	want := []string{"query " + res.QueryID}
	for _, uri := range []string{"a.xml", "b.xml", "c.xml"} {
		want = append(want, "query "+res.QueryID+"-"+uri)
	}
	if !slices.Equal(spans, want) {
		t.Errorf("query spans = %v, want %v", spans, want)
	}
}

// TestQueryEndpointAllDocumentsBudget: an all-documents request in which
// one document exceeds the node budget is a budget abort — 408 with the
// budget verdict and the document named — not a 200 over the documents
// that fit.
func TestQueryEndpointAllDocumentsBudget(t *testing.T) {
	e := blossomtree.NewEngine()
	if err := e.LoadString("big.xml", "<r>"+strings.Repeat("<a><b/></a>", 200)+"</r>"); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadString("small.xml", `<r><a><b/></a></r>`); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Engine: e}))
	defer ts.Close()

	status, res := postQuery(t, ts, QueryRequest{Query: `//a/b`, MaxNodes: 20, AllDocuments: true})
	if status != http.StatusRequestTimeout || res.Verdict != "budget_exceeded" {
		t.Fatalf("status = %d, verdict = %q, want 408 budget_exceeded; body %+v", status, res.Verdict, res)
	}
	if !strings.Contains(res.Error, "big.xml") {
		t.Errorf("error %q does not name the failing document", res.Error)
	}
}

// served from the plan cache and says so in its response.
func TestQueryEndpointWarmCache(t *testing.T) {
	ts := newTestServer(t)
	req := QueryRequest{Query: `//book[author/last="Knuth"]/title`}
	status, res := postQuery(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("first query status = %d, body %+v", status, res)
	}
	cold := res
	status, res = postQuery(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("second query status = %d, body %+v", status, res)
	}
	if !res.Cached {
		t.Error("repeated identical query did not report cached: true")
	}
	if res.Count != cold.Count || len(res.Nodes) != len(cold.Nodes) {
		t.Errorf("cached response diverges: count %d vs %d", res.Count, cold.Count)
	}
	if res.Strategy != cold.Strategy {
		t.Errorf("cached strategy %q differs from cold %q", res.Strategy, cold.Strategy)
	}
}

// TestQueryEndpointNewSurface round-trips one query per newly supported
// construct — core functions, attribute value tests, upward axes,
// positional predicates and positional variables — through POST /query,
// and repeats each to pin that the routing decision (planned, residual
// or navigational fallback) is served from the plan cache.
func TestQueryEndpointNewSurface(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name, query string
		count       int
	}{
		{"contains", `//book[contains(title, "Art")]`, 1},
		{"starts-with", `//book[starts-with(@year, "19")]`, 3},
		{"count", `//book[count(author) = 1]`, 2},
		{"sum", `//book[sum(price) >= 100]`, 1},
		{"number", `for $b in doc("bib.xml")//book where number($b/price) < 40 return $b`, 3},
		{"name", `//book[name() = "book"]`, 4},
		{"string-join", `for $b in doc("bib.xml")//book where string-join($b/author/last, "-") = "Knuth" return $b`, 2},
		{"attr-test", `//book[@year="1994"]/title`, 1},
		{"attr-value", `//book/@year`, 4},
		{"parent", `//title/parent::book`, 4},
		{"parent-rewrite", `//book/title/..`, 4},
		{"ancestor", `//last/ancestor::book`, 2},
		{"positional-pred", `//book[2]`, 1},
		{"positional-var", `for $b at $i in doc("bib.xml")//book where $i <= 2 return $b`, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, cold := postQuery(t, ts, QueryRequest{Query: tc.query, Explain: true})
			if status != http.StatusOK {
				t.Fatalf("status = %d, body %+v", status, cold)
			}
			if cold.Count != tc.count {
				t.Errorf("count = %d, want %d", cold.Count, tc.count)
			}
			if cold.Explain == "" {
				t.Error("explain missing from response")
			}
			status, warm := postQuery(t, ts, QueryRequest{Query: tc.query})
			if status != http.StatusOK {
				t.Fatalf("warm status = %d, body %+v", status, warm)
			}
			if !warm.Cached {
				t.Error("repeated query did not report cached: true")
			}
			if warm.Count != cold.Count {
				t.Errorf("warm count %d diverges from cold %d", warm.Count, cold.Count)
			}
		})
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// At least one evaluation so the latency histogram is non-empty.
	if status, _ := postQuery(t, ts, QueryRequest{Query: `//book/title`}); status != http.StatusOK {
		t.Fatalf("query status = %d", status)
	}
	httpRes, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpRes.Body.Close()
	if ct := httpRes.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	b, err := io.ReadAll(httpRes.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, want := range []string{
		"# TYPE blossomtree_query_duration_seconds histogram",
		`blossomtree_query_duration_seconds_bucket{le="+Inf"}`,
		"blossomtree_queries_total",
		"blossomtree_plan_cache_hits",
		"blossomtree_plan_cache_misses",
		"blossomtree_plan_cache_evictions",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// The histogram must have recorded the query above (obs.Default is
	// process-wide, so assert non-zero rather than an exact count).
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "blossomtree_query_duration_seconds_count") {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("latency histogram empty after a query: %s", line)
			}
			return
		}
	}
	t.Error("no query_duration_seconds_count line in exposition")
}

func TestTraceEndpointMatchesExplain(t *testing.T) {
	ts := newTestServer(t)
	status, res := postQuery(t, ts, QueryRequest{Query: `//book//last`, Analyze: true, Explain: true})
	if status != http.StatusOK {
		t.Fatalf("query status = %d", status)
	}
	httpRes, err := http.Get(ts.URL + res.TraceURL)
	if err != nil {
		t.Fatal(err)
	}
	defer httpRes.Body.Close()
	if httpRes.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", httpRes.StatusCode)
	}
	if ct := httpRes.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.NewDecoder(httpRes.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.OtherData["queryID"] != res.QueryID {
		t.Errorf("trace otherData = %v, want queryID %q", tr.OtherData, res.QueryID)
	}
	// The span tree matches the operator sites of the query's EXPLAIN
	// ANALYZE: one operator span per tree line, same names, same order.
	var explainOps []string
	for _, line := range strings.Split(strings.TrimRight(res.Explain, "\n"), "\n") {
		if !strings.HasPrefix(line, "plan strategy:") {
			explainOps = append(explainOps, line)
		}
	}
	var spans []string
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "operator" {
			spans = append(spans, ev.Name)
		}
	}
	if len(spans) == 0 || len(spans) != len(explainOps) {
		t.Fatalf("operator spans = %v, explain lines = %v", spans, explainOps)
	}
	for i, name := range spans {
		if !strings.Contains(explainOps[i], name) {
			t.Errorf("explain line %d %q does not contain span %q", i, explainOps[i], name)
		}
	}
}

func TestTraceEndpointUnknownID(t *testing.T) {
	ts := newTestServer(t)
	httpRes, err := http.Get(ts.URL + "/trace/no-such-query")
	if err != nil {
		t.Fatal(err)
	}
	defer httpRes.Body.Close()
	if httpRes.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", httpRes.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(httpRes.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] == "" {
		t.Error("404 body should explain the miss")
	}
}

func TestPprofEndpoint(t *testing.T) {
	ts := newTestServer(t)
	httpRes, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer httpRes.Body.Close()
	if httpRes.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", httpRes.StatusCode)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	e := blossomtree.NewEngine()
	if err := e.LoadString("bib.xml", bib); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Engine: e, MaxBodyBytes: 64}))
	defer ts.Close()
	big, err := json.Marshal(QueryRequest{Query: "//" + strings.Repeat("x", 200)})
	if err != nil {
		t.Fatal(err)
	}
	httpRes, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	httpRes.Body.Close()
	if httpRes.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body status = %d, want 400", httpRes.StatusCode)
	}
}

// lockedBuffer is a log sink the handler goroutines write and the test
// reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// last decodes the most recent JSON log line.
func (b *lockedBuffer) last(t *testing.T) map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	lines := strings.Split(strings.TrimSpace(b.buf.String()), "\n")
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("log line %q: %v", lines[len(lines)-1], err)
	}
	return rec
}

// TestQueryEndpointNavReason: one query, one story. Fragment-outside
// queries say why they routed to the navigational fallback, and planned
// and forced-navigational queries omit the field. The reply's strategy
// is the executed plan's EXPLAIN headline, and the query log's record
// and the reply agree on query ID, strategy, cache hit and nav reason,
// cold and warm.
func TestQueryEndpointNavReason(t *testing.T) {
	e := blossomtree.NewEngine()
	if err := e.LoadString("bib.xml", bib); err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	ts := httptest.NewServer(New(Config{Engine: e, Logger: slog.New(slog.NewJSONHandler(&logs, nil))}))
	t.Cleanup(ts.Close)
	for _, c := range []struct {
		name     string
		req      QueryRequest
		planned  bool
		fallback bool
	}{
		{"planned", QueryRequest{Query: `//book/title`, Explain: true}, true, false},
		{"contains-fallback", QueryRequest{Query: `//book[contains(title, "Maximum")]`, Explain: true}, false, true},
		{"forced-navigational", QueryRequest{Query: `//book/title`, Strategy: "navigational"}, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			for run := 0; run < 2; run++ {
				status, res := postQuery(t, ts, c.req)
				if status != http.StatusOK || res.Verdict != "ok" {
					t.Fatalf("status = %d, verdict = %q", status, res.Verdict)
				}
				if (res.Strategy != "XH") != c.planned || (res.NavReason != "") != c.fallback {
					t.Errorf("run %d: strategy %q, nav_reason %q; want planned %v, fallback %v", run, res.Strategy, res.NavReason, c.planned, c.fallback)
				}
				if headline, _, _ := strings.Cut(res.Explain, "\n"); c.req.Explain && headline != "plan strategy: "+res.Strategy {
					t.Errorf("run %d: strategy %q, explain headline %q", run, res.Strategy, headline)
				}
				rec := logs.last(t)
				cached, _ := rec["cached"].(bool)
				navReason, _ := rec["nav_reason"].(string)
				if rec["query_id"] != res.QueryID || rec["strategy"] != res.Strategy ||
					cached != res.Cached || navReason != res.NavReason {
					t.Errorf("run %d: log record %v does not match the reply %+v", run, rec, res)
				}
			}
		})
	}
}

// TestReplanOnSecondPost: the second identical POST of a misestimated
// query hits the template its first run taught — the reply says
// "replanned":true with the drift, and feedback_replans_total moves.
func TestReplanOnSecondPost(t *testing.T) {
	// Parts nested in parts, one in fifty carrying the <bolt/> the query
	// asks for: the twig root is estimated at every part.
	var sb strings.Builder
	sb.WriteString("<assembly>")
	for i := 0; i < 500; i++ {
		sb.WriteString("<part>")
		if i%50 == 0 {
			sb.WriteString("<bolt/>")
		}
		sb.WriteString("<subpart/><subpart/><part><subpart/></part></part>")
	}
	sb.WriteString("</assembly>")
	e := blossomtree.NewEngine()
	if err := e.LoadString("skew.xml", sb.String()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Engine: e, MaxRequestTimeout: 5 * time.Second}))
	t.Cleanup(ts.Close)

	const q = `//part[bolt]//subpart`
	before := blossomtree.Metrics()[obs.MetricFeedbackReplans]
	var replies []QueryResponse
	for i := 0; i < 3; i++ {
		status, res := postQuery(t, ts, QueryRequest{Query: q})
		if status != http.StatusOK || res.Verdict != "ok" {
			t.Fatalf("post %d: status = %d, verdict = %q", i, status, res.Verdict)
		}
		replies = append(replies, res)
	}
	if replies[0].Replanned {
		t.Error("the first POST claims a replan")
	}
	for i, res := range replies[1:] {
		if !res.Replanned || res.Drift < 2 || !res.Cached {
			t.Errorf("post %d: replanned=%v drift=%v cached=%v, want a cached replan", i+1, res.Replanned, res.Drift, res.Cached)
		}
		if res.Count != replies[0].Count {
			t.Errorf("post %d: count %d, want %d", i+1, res.Count, replies[0].Count)
		}
	}
	if after := blossomtree.Metrics()[obs.MetricFeedbackReplans]; after != before+1 {
		t.Errorf("feedback_replans_total moved %d -> %d, want one replan", before, after)
	}
}
