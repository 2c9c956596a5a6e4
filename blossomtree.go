// Package blossomtree is an XQuery/XPath evaluation engine built on the
// BlossomTree formalism of Zhang, Agrawal and Özsu ("BlossomTree:
// Evaluating XPaths in FLWOR Expressions", ICDE 2005 / UW TR
// CS-2004-58).
//
// The engine compiles a FLWOR expression (or a bare path expression)
// into a BlossomTree — an annotated graph capturing every path
// expression of the query and their correlations (variable references,
// structural relationships such as <<, value comparisons, deep-equal) —
// decomposes it into navigational NoK pattern trees, and evaluates the
// pieces with a cost-rule-driven mix of physical operators: NoK scans
// over the tag index, the pipelined merge //-join, the bounded
// nested-loop //-join, naive nested-loop joins for crossing predicates,
// and the holistic TwigStack join over tag indexes.
//
// Basic usage:
//
//	e := blossomtree.NewEngine()
//	if err := e.LoadString("bib.xml", xmlText); err != nil { … }
//	res, err := e.Query(`for $b in doc("bib.xml")//book
//	                     where $b/price < 50
//	                     return <cheap>{ $b/title }</cheap>`)
//	fmt.Println(res.XML())
//
// Path queries return nodes directly:
//
//	res, _ := e.Query(`//book[author/last="Knuth"]/title`)
//	for _, n := range res.Nodes() { fmt.Println(n.Text()) }
//
// There are two ways to run a query — on one document
// (QueryWithContext) and on every loaded document, gathered into one
// result (QueryAllGatheredContext) — and one to explain it
// (ExplainWithContext). Each query family has one context-first entry
// point; Query, QueryWith and Explain are one-statement wrappers over
// them. A repeated query text is served from the engine's plan cache.
package blossomtree

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"blossomtree/internal/exec"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

// Strategy selects the structural-join algorithm family, mirroring the
// systems compared in the paper's evaluation.
type Strategy string

// Available strategies.
const (
	// StrategyAuto lets the cost model choose: the cheapest of the
	// pipelined join, bounded nested loops and TwigStack whose
	// preconditions hold, priced from document statistics and tag-index
	// counts (and, on a cached plan's replan, from its first run's
	// observed cardinalities).
	StrategyAuto Strategy = "auto"
	// StrategyPipelined forces the pipelined merge //-join (PL). Only
	// sound on non-recursive documents.
	StrategyPipelined Strategy = "pipelined"
	// StrategyBoundedNL forces the bounded nested-loop //-join (NL).
	StrategyBoundedNL Strategy = "bounded-nl"
	// StrategyTwigStack forces the holistic TwigStack join (TS) over the
	// document's tag index.
	StrategyTwigStack Strategy = "twigstack"
	// StrategyNavigational evaluates the whole query by naive tree
	// navigation (the straightforward-approach baseline).
	StrategyNavigational Strategy = "navigational"
	// StrategyCostBased runs the same plan as StrategyAuto.
	//
	// Deprecated: Auto is the cost model; use StrategyAuto.
	StrategyCostBased Strategy = "cost"
	// StrategyVectorized runs the same plan as StrategyAuto.
	//
	// Deprecated: the vectorized executor it selected is gone; use
	// StrategyAuto.
	StrategyVectorized Strategy = "vectorized"
)

func (s Strategy) toPlan() (plan.Strategy, error) {
	switch s {
	case StrategyAuto, StrategyCostBased, StrategyVectorized, "":
		return plan.Auto, nil
	case StrategyPipelined:
		return plan.Pipelined, nil
	case StrategyBoundedNL:
		return plan.BoundedNL, nil
	case StrategyTwigStack:
		return plan.Twig, nil
	case StrategyNavigational:
		return plan.Navigational, nil
	default:
		return plan.Auto, fmt.Errorf("blossomtree: unknown strategy %q", s)
	}
}

// Options tunes query evaluation.
type Options struct {
	// Strategy forces a join algorithm; default Auto.
	Strategy Strategy
	// Analyze enables per-operator wall-clock timing, making
	// Result.ExplainAnalyze include actual-time columns. Counters
	// (nodes scanned, instances emitted, comparisons) are collected
	// regardless.
	Analyze bool
	// Budget bounds the evaluation's resources; exhaustion aborts the
	// query with ErrBudgetExceeded. The zero Budget means unlimited.
	Budget Budget
	// Logger, when non-nil, receives one structured record per
	// evaluation: query ID, query-text hash, executed strategy,
	// governance verdict, nodes scanned, rows out, and latency. The
	// CLI, the benchmark and the blossomd daemon all log through this one
	// hook.
	Logger *slog.Logger
	// SlowQueryThreshold promotes evaluations at or past the threshold
	// to Warn-level records carrying the query's full EXPLAIN ANALYZE
	// tree; 0 disables slow-query capture.
	SlowQueryThreshold time.Duration
	// QueryID pins the evaluation's identifier (used by the query log
	// and GET /trace/{queryID}); empty means the engine generates one,
	// readable afterwards via Result.QueryID.
	QueryID string
}

// toPlan lowers the public options onto the planner's, binding the
// evaluation to ctx.
func (o Options) toPlan(ctx context.Context) (plan.Options, error) {
	strat, err := o.Strategy.toPlan()
	if err != nil {
		return plan.Options{}, err
	}
	return plan.Options{
		Strategy:           strat,
		Analyze:            o.Analyze,
		Ctx:                ctx,
		Budget:             o.Budget.toGov(),
		Logger:             o.Logger,
		SlowQueryThreshold: o.SlowQueryThreshold,
		QueryID:            o.QueryID,
	}, nil
}

// Engine evaluates queries over loaded documents. An Engine is safe for
// concurrent use: loading installs an immutable copy-on-write snapshot
// of the document catalog, every query evaluates against the snapshot
// current when it started, and documents are never mutated after
// loading. Any number of goroutines may query while others load.
type Engine struct {
	x *exec.Engine
}

// NewEngine returns an engine. Every document it loads gets a tag
// index, which TwigStack and the NoK scans read.
func NewEngine() *Engine {
	return &Engine{x: exec.New()}
}

// Load parses an XML document from r and registers it under uri (the
// name used by doc("…") in queries). The first loaded document also
// serves absolute paths.
func (e *Engine) Load(uri string, r io.Reader) error {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return err
	}
	doc.Name = uri
	e.x.Add(uri, doc)
	return nil
}

// LoadString parses a document from a string.
func (e *Engine) LoadString(uri, xml string) error {
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		return err
	}
	doc.Name = uri
	e.x.Add(uri, doc)
	return nil
}

// LoadFile parses the named file and registers it under uri.
func (e *Engine) LoadFile(uri, path string) error {
	doc, err := xmltree.ParseFile(path)
	if err != nil {
		return err
	}
	e.x.Add(uri, doc)
	return nil
}

// LoadDocument registers an already-built document (e.g. from the
// generator tooling).
func (e *Engine) LoadDocument(uri string, doc *xmltree.Document) {
	e.x.Add(uri, doc)
}

// Stats returns statistics of the document registered under uri — the
// inputs to the optimizer's cost model — as the engine already holds
// them: a store-backed document is not read.
func (e *Engine) Stats(uri string) (DocumentStats, error) {
	s, err := e.x.Stats(uri)
	if err != nil {
		return DocumentStats{}, err
	}
	return DocumentStats{
		Nodes:     s.Nodes,
		Elements:  s.Elements,
		MaxDepth:  s.MaxDepth,
		AvgDepth:  s.AvgDepth,
		Tags:      s.Tags,
		Recursive: s.Recursive,
		Bytes:     s.Bytes,
	}, nil
}

func (e *Engine) resolve(uri string) (*xmltree.Document, error) {
	if doc, ok := e.x.Document(uri); ok {
		return doc, nil
	}
	return nil, fmt.Errorf("blossomtree: no document registered for %q", uri)
}

// DocumentStats summarizes a loaded document.
type DocumentStats struct {
	Nodes     int
	Elements  int
	MaxDepth  int
	AvgDepth  float64
	Tags      int
	Recursive bool
	Bytes     int64
}

// Query evaluates a query with the Auto strategy.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryWithContext(context.Background(), src, Options{})
}

// QueryWith evaluates a query with explicit options.
func (e *Engine) QueryWith(src string, opts Options) (*Result, error) {
	return e.QueryWithContext(context.Background(), src, opts)
}

// QueryWithContext evaluates a query with explicit options under a
// context: cancellation or deadline expiry aborts the evaluation
// mid-operator with ErrCanceled / ErrBudgetExceeded, and an
// already-canceled context returns ErrCanceled before anything is
// scanned.
func (e *Engine) QueryWithContext(ctx context.Context, src string, opts Options) (*Result, error) {
	popts, err := opts.toPlan(ctx)
	if err != nil {
		return nil, err
	}
	res, err := e.x.EvalOptions(src, popts)
	if err != nil {
		return nil, err
	}
	return newResult(res), nil
}

// QueryAllGatheredContext evaluates one query independently against
// every loaded document in parallel, under a context shared by every
// per-document evaluation, and gathers the answers into a single Result
// in URI order. Inside each evaluation, every doc("…") URI and absolute
// path resolves to that document — the fan-out form of the
// multi-document queries the single-document planner rejects. The
// gathered Result carries every document's nodes and rows, and a query
// that constructs elements answers one constructed document: its outer
// constructor once, its return clause once per row of every document.
//
// A gathered result is all or nothing: if any document's evaluation
// fails, the call returns the first failing document's error (in URI
// order), naming the document and wrapping the cause, so Verdict and
// errors.Is classify it like a single-document failure. The gathered
// Result carries the fan-out's record: its QueryID (Options.QueryID
// when pinned) names the trace whose query spans are the per-document
// evaluations, and its Strategy is "scatter".
func (e *Engine) QueryAllGatheredContext(ctx context.Context, src string, opts Options) (*Result, error) {
	popts, err := opts.toPlan(ctx)
	if err != nil {
		return nil, err
	}
	res, err := e.x.EvalAllDocs(src, popts)
	if err != nil {
		return nil, err
	}
	return newResult(res), nil
}

// Explain compiles a query and renders the physical plan the optimizer
// chose: the NoK decomposition, access methods, join operators and
// crossing-edge placement, the cost model's strategy table, and the
// annotated operator tree with per-operator cost estimates.
func (e *Engine) Explain(src string) (string, error) {
	return e.ExplainWithContext(context.Background(), src, Options{})
}

// ExplainWithContext is Explain with explicit options (a forced
// strategy, Analyze). With Options.Analyze it is the EXPLAIN ANALYZE of
// relational engines: the query is evaluated under ctx — governed,
// traced (Options.QueryID), logged and metered like any other
// evaluation — and the operator tree shows the cost model's estimates
// side by side with the counters and wall times the run recorded.
func (e *Engine) ExplainWithContext(ctx context.Context, src string, opts Options) (string, error) {
	popts, err := opts.toPlan(ctx)
	if err != nil {
		return "", err
	}
	return e.x.Explain(src, popts)
}

// Metrics returns a snapshot of the process-wide metrics registry:
// monotonic counters (queries evaluated, errors, nodes scanned by the
// physical operators, instances emitted, …) aggregated across every
// engine in the process. Safe to call concurrently with evaluations.
func Metrics() map[string]int64 {
	return obs.Default.Snapshot()
}

// FormatMetrics renders a metrics snapshot as sorted "name value" lines.
func FormatMetrics(m map[string]int64) string {
	return obs.Format(m)
}

// WritePrometheus renders the process-wide metrics registry — counters
// and the query-latency histogram — in Prometheus text exposition
// format (the payload of blossomd's GET /metrics). Safe to call
// concurrently with evaluations.
func WritePrometheus(w io.Writer) error {
	return obs.Default.WritePrometheus(w)
}

// NewQueryID returns a process-unique query identifier, for callers
// (like the daemon) that need to know the ID before the evaluation
// runs so failures remain attributable.
func NewQueryID() string { return exec.NewQueryID() }

// TraceJSON returns the Chrome trace-event JSON of a query this engine
// recently executed (by Result.QueryID): one span per physical
// operator, nested like the EXPLAIN ANALYZE tree, with real durations
// when the query ran with Options.Analyze; an all-documents fan-out
// nests one query span per document. The engine retains the records of
// its most recent ~512 evaluations and renders the trace on request;
// older queries, and other engines' queries, report false.
func (e *Engine) TraceJSON(queryID string) ([]byte, bool) {
	rec, ok := e.x.State().Recent.Get(queryID)
	if !ok {
		return nil, false
	}
	return obs.NewTrace(rec).JSON(), true
}
