// Package server is the HTTP serving layer of the blossomd daemon: a
// long-running engine process with per-request query evaluation
// (POST /query, honoring a per-request budget), Prometheus metrics
// exposition (GET /metrics), per-query trace export
// (GET /trace/{queryID}), and the standard pprof endpoints
// (GET /debug/pprof/*), with admission control (Admission) in front of
// evaluation. Every evaluation flows through the same telemetry pipeline
// as the CLI and the benchmark: one record per evaluation, read by the
// query-duration histogram, the trace ring and the structured query log.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"blossomtree"
	"blossomtree/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Engine serves the queries. Required.
	Engine *blossomtree.Engine
	// Logger receives the structured query log and daemon events; nil
	// disables logging.
	Logger *slog.Logger
	// SlowQueryThreshold is passed to every evaluation (see
	// blossomtree.Options.SlowQueryThreshold).
	SlowQueryThreshold time.Duration
	// MaxBodyBytes caps POST /query request bodies; <= 0 means 1 MiB.
	MaxBodyBytes int64
	// MaxRequestTimeout caps the per-request budget a client may ask
	// for (and is the default when the request sets none); <= 0 means
	// no cap is applied.
	MaxRequestTimeout time.Duration
	// Admission gates POST /query with per-tenant token buckets and a
	// weighted-fair inflight queue (tenant = X-Tenant header, "default"
	// when absent). A shed request answers 429 with a Retry-After hint
	// and a "shed" verdict in the query log. Nil admits everything.
	Admission *Admission
}

// Server handles the daemon's HTTP API.
type Server struct {
	cfg Config
	mux *http.ServeMux
}

// New builds a server around an engine.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /trace/{queryID}", s.handleTrace)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Query is the XPath or FLWOR expression. Required.
	Query string `json:"query"`
	// Strategy forces a join strategy ("auto", "pipelined",
	// "bounded-nl", "twigstack", "navigational"); default auto, the cost
	// model's choice. The deprecated "cost" and "vectorized" run auto.
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMS / MaxNodes / MaxOutput form the per-request
	// Options.Budget; zero values mean unlimited (subject to the
	// server's MaxRequestTimeout cap), negative ones are refused.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	MaxNodes  int64 `json:"max_nodes,omitempty"`
	MaxOutput int64 `json:"max_output,omitempty"`
	// Analyze enables per-operator wall-clock timing, so the response's
	// explain tree and the stored trace carry real durations.
	Analyze bool `json:"analyze,omitempty"`
	// Explain includes the executed plan's EXPLAIN ANALYZE tree in the
	// response.
	Explain bool `json:"explain,omitempty"`
	// AllDocuments evaluates the query against every loaded document and
	// gathers the per-document results into one ordered response. If any
	// document fails, the request fails with that document's error and
	// status (408 for a budget abort), never a partial 200.
	AllDocuments bool `json:"all_documents,omitempty"`
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	QueryID  string `json:"query_id"`
	Strategy string `json:"strategy,omitempty"`
	// Cached reports whether the evaluation reused a compiled plan from
	// the daemon's plan cache; a repeated identical query against an
	// unchanged catalog reports true.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Count     int     `json:"count"`
	// XML is a success's answer, Result.XML, with <, > and & unescaped.
	XML      string `json:"xml,omitempty"`
	Explain  string `json:"explain,omitempty"`
	TraceURL string `json:"trace_url"`
	Error    string `json:"error,omitempty"`
	Verdict  string `json:"verdict"`
	// NavReason says why the query routed to the navigational fallback
	// instead of a BlossomTree plan; absent for planned queries.
	NavReason string `json:"nav_reason,omitempty"`
	// Replanned marks an evaluation that ran a replanned plan template
	// (its estimates drifted from its first run's observations by Drift×).
	Replanned bool    `json:"replanned,omitempty"`
	Drift     float64 `json:"drift,omitempty"`
	// RetryAfterMS echoes the Retry-After hint of a shed (429) response
	// in milliseconds, for clients that prefer the body to the header.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// statusClientClosedRequest is the de-facto (nginx) status for requests
// aborted by the client; Go's net/http has no constant for it.
const statusClientClosedRequest = 499

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad request body: " + err.Error(), Verdict: "error"})
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "missing query", Verdict: "error"})
		return
	}
	for _, f := range [...]struct {
		name string
		v    int64
	}{{"timeout_ms", req.TimeoutMS}, {"max_nodes", req.MaxNodes}, {"max_output", req.MaxOutput}} {
		if f.v < 0 {
			writeJSON(w, http.StatusBadRequest, QueryResponse{Error: f.name + " must not be negative", Verdict: "error"})
			return
		}
	}

	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if cap := s.cfg.MaxRequestTimeout; cap > 0 && (timeout <= 0 || timeout > cap) {
		timeout = cap
	}
	// The ID is generated before evaluation so failed queries stay
	// attributable in the log and the response.
	qid := blossomtree.NewQueryID()

	// Admission control runs after decode (so sheds are attributable to
	// a query hash in the log) and before any evaluation work.
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	admitStart := time.Now()
	release, admErr := s.cfg.Admission.Admit(r.Context(), tenant)
	if admErr != nil {
		s.writeAdmissionError(w, r, qid, req.Query, admErr, time.Since(admitStart))
		return
	}
	defer release()

	opts := blossomtree.Options{
		Strategy: blossomtree.Strategy(req.Strategy),
		Analyze:  req.Analyze,
		Budget: blossomtree.Budget{
			MaxNodes:  req.MaxNodes,
			MaxOutput: req.MaxOutput,
			Timeout:   timeout,
		},
		Logger:             s.cfg.Logger,
		SlowQueryThreshold: s.cfg.SlowQueryThreshold,
		QueryID:            qid,
	}

	start := time.Now()
	var res *blossomtree.Result
	var err error
	if req.AllDocuments {
		res, err = s.cfg.Engine.QueryAllGatheredContext(r.Context(), req.Query, opts)
	} else {
		res, err = s.cfg.Engine.QueryWithContext(r.Context(), req.Query, opts)
	}
	resp := QueryResponse{
		QueryID:   qid,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		TraceURL:  "/trace/" + qid,
		Verdict:   blossomtree.Verdict(err),
	}
	if err != nil {
		resp.Error = err.Error()
		writeJSON(w, errorStatus(w, r, err), resp)
		return
	}
	resp.Strategy = res.Strategy()
	resp.NavReason = res.NavReason()
	resp.Replanned = res.Replanned()
	resp.Drift = res.Drift()
	resp.Cached = res.Cached()
	resp.Count = res.Len()
	resp.XML = res.XML()
	if req.Explain {
		resp.Explain = res.ExplainAnalyze()
	}
	writeJSON(w, http.StatusOK, resp)
}

// errorStatus maps an evaluation error to its HTTP status, setting the
// Retry-After header for sheds. The distinctions a load balancer cares
// about: 429 = shed before evaluation (retry elsewhere / later), 499 =
// the client went away (not a server fault), 408 = the server aborted
// the query on its budget or deadline, 422 = the query itself is bad.
func errorStatus(w http.ResponseWriter, r *http.Request, err error) int {
	var sh *ShedError
	switch {
	case errors.As(err, &sh):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(sh)))
		return http.StatusTooManyRequests
	case errors.Is(err, blossomtree.ErrShed):
		w.Header().Set("Retry-After", "1")
		return http.StatusTooManyRequests
	case errors.Is(err, blossomtree.ErrCanceled) && r.Context().Err() != nil:
		// The client disconnected or canceled; nobody is reading the
		// response, but the status keeps access logs honest.
		return statusClientClosedRequest
	case errors.Is(err, blossomtree.ErrCanceled), errors.Is(err, blossomtree.ErrBudgetExceeded):
		return http.StatusRequestTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// retryAfterSeconds renders a shed's hint as whole seconds, ≥ 1.
func retryAfterSeconds(sh *ShedError) int {
	secs := int(math.Ceil(sh.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeAdmissionError answers a request refused before evaluation and
// records it in the structured query log (verdict "shed" or "canceled"),
// so shed traffic is visible alongside evaluated traffic.
func (s *Server) writeAdmissionError(w http.ResponseWriter, r *http.Request, qid, query string, err error, waited time.Duration) {
	resp := QueryResponse{
		QueryID:   qid,
		ElapsedMS: float64(waited.Microseconds()) / 1000,
		TraceURL:  "/trace/" + qid,
		Verdict:   blossomtree.Verdict(err),
		Error:     err.Error(),
	}
	var sh *ShedError
	if errors.As(err, &sh) {
		resp.RetryAfterMS = sh.RetryAfter.Milliseconds()
	}
	status := errorStatus(w, r, err)
	rec := &obs.QueryRecord{
		QueryID:   qid,
		QueryHash: obs.QueryHash(query),
		Verdict:   resp.Verdict,
		Latency:   waited,
		Err:       err.Error(),
	}
	rec.Log(s.cfg.Logger, 0)
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := blossomtree.WritePrometheus(w); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Warn("metrics exposition failed", "error", err)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("queryID")
	b, ok := s.cfg.Engine.TraceJSON(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no trace for query %q (traces are retained for recent queries only)", id)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
