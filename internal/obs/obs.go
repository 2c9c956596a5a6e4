// Package obs is the engine's observability layer: a lightweight
// metrics registry of atomic counters, and per-query ExecStats trees
// that mirror a physical plan's operator tree with work counters
// (nodes scanned, instances emitted, comparisons, stack depth, wall
// time) next to the optimizer's estimates.
//
// Everything here is safe under the engine's concurrency model: the
// registry and all OpStats counters are plain atomics, so concurrent
// batch and all-documents evaluations may bump them without locks. Stats collection is near-zero-cost when
// disabled: every mutator is a nil-safe method on *OpStats, so
// uninstrumented operators pay one predictable branch, and wall-clock
// timing (the only expensive probe) is off unless explicitly enabled
// for EXPLAIN ANALYZE.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is an atomic monotonically-increasing counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// LabeledCounter is a counter family with one label dimension (e.g.
// queries_shed_total{tenant=…}). Label values are unbounded input —
// tenants arrive from request headers — so the family guards its own
// cardinality: the first MaxSeries distinct values each get a series,
// and every later value folds into the reserved "other" series. The
// per-series counters are the same lock-free Counter as the unlabeled
// registry; only series creation takes the mutex.
type LabeledCounter struct {
	name  string
	label string

	mu     sync.Mutex
	max    int
	series map[string]*Counter
}

// LabelOther is the fold-over series value used once a LabeledCounter
// reaches its cardinality bound.
const LabelOther = "other"

// DefaultLabelSeries bounds the distinct label values a LabeledCounter
// tracks before folding into LabelOther.
const DefaultLabelSeries = 16

// Add bumps the series for the given label value, folding into
// LabelOther past the cardinality bound. Empty values count as
// LabelOther too, so callers can pass untrusted input straight through.
func (c *LabeledCounter) Add(value string, n int64) {
	if c == nil {
		return
	}
	c.counterFor(value).Add(n)
}

func (c *LabeledCounter) counterFor(value string) *Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	if value == "" {
		value = LabelOther
	}
	if ctr, ok := c.series[value]; ok {
		return ctr
	}
	if value != LabelOther && len(c.series) >= c.max {
		value = LabelOther
		if ctr, ok := c.series[value]; ok {
			return ctr
		}
	}
	ctr := &Counter{}
	c.series[value] = ctr
	return ctr
}

// Label returns the family's label name (e.g. "tenant").
func (c *LabeledCounter) Label() string { return c.label }

// Series returns a point-in-time copy of every series value.
func (c *LabeledCounter) Series() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.series))
	for v, ctr := range c.series {
		out[v] = ctr.Load()
	}
	return out
}

// Registry is a named set of counters and histograms. Registration is
// guarded by a mutex; the instruments themselves are lock-free, so the
// hot path (Add on an already-obtained *Counter, Observe on a
// *Histogram) never contends.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	labeled    map[string]*LabeledCounter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		labeled:    make(map[string]*LabeledCounter),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the engine reports into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add bumps the named counter by n (registering it if needed).
func (r *Registry) Add(name string, n int64) { r.Counter(name).Add(n) }

// LabeledCounter returns the named counter family with one label
// dimension, creating it on first use with the DefaultLabelSeries
// cardinality bound. Later calls return the existing family regardless
// of the label they pass. The labeled family is additional detail next
// to — not a replacement for — the plain counter of the same name:
// callers keep bumping the unlabeled aggregate so existing dashboards
// and deltas stay whole.
func (r *Registry) LabeledCounter(name, label string) *LabeledCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.labeled[name]
	if !ok {
		c = &LabeledCounter{
			name:   name,
			label:  label,
			max:    DefaultLabelSeries,
			series: make(map[string]*Counter),
		}
		r.labeled[name] = c
	}
	return c
}

// AddLabeled bumps one series of the named labeled counter family.
func (r *Registry) AddLabeled(name, label, value string, n int64) {
	r.LabeledCounter(name, label).Add(value, n)
}

// labeledSnapshot copies the labeled-family map for rendering.
func (r *Registry) labeledSnapshot() map[string]*LabeledCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*LabeledCounter, len(r.labeled))
	for name, c := range r.labeled {
		out[name] = c
	}
	return out
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Later calls return the existing
// histogram regardless of the bounds they pass, so callers on the hot
// path may re-resolve by name without re-specifying buckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(name, bounds)
		r.histograms[name] = h
	}
	return h
}

// Observe records one observation on the named histogram, creating it
// with LatencyBuckets on first use.
func (r *Registry) Observe(name string, v float64) {
	r.Histogram(name, LatencyBuckets).Observe(v)
}

// Histograms returns the registered histograms, sorted by name.
func (r *Registry) Histograms() []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot returns a point-in-time copy of every counter's value.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

// Delta subtracts an earlier snapshot from the current values, keeping
// only counters that moved. Counters present only in before (e.g.
// after the registry was swapped or reset between snapshots) are
// reported with negative deltas rather than dropped, so a delta always
// reconciles the two snapshots exactly.
func (r *Registry) Delta(before map[string]int64) map[string]int64 {
	now := r.Snapshot()
	out := make(map[string]int64)
	for name, v := range now {
		if d := v - before[name]; d != 0 {
			out[name] = d
		}
	}
	for name, v := range before {
		if _, ok := now[name]; !ok && v != 0 {
			out[name] = -v
		}
	}
	return out
}

// Format renders a snapshot (or delta) sorted by counter name.
func Format(values map[string]int64) string {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%-32s %d\n", n, values[n])
	}
	return sb.String()
}

// Registry counter names the executor reports. Kept here so readers of
// metrics output can find their producers.
const (
	MetricQueries        = "queries_total"
	MetricQueryErrors    = "query_errors_total"
	MetricQueryNanos     = "query_nanos_total"
	MetricNodesScanned   = "operator_nodes_scanned_total"
	MetricInstancesOut   = "operator_instances_emitted_total"
	MetricComparisons    = "operator_comparisons_total"
	MetricOperatorCalls  = "operator_getnext_calls_total"
	MetricDocumentsAdded = "documents_added_total"
	// MetricQueryAborts counts evaluations ended by governance: context
	// cancellation, deadline expiry, or resource-budget exhaustion.
	MetricQueryAborts = "query_aborts_total"
	// MetricQueryPanics counts operator panics converted to errors at
	// the executor boundary.
	MetricQueryPanics = "query_panics_total"
	// MetricSlowQueries counts queries whose latency met or exceeded the
	// configured slow-query threshold.
	MetricSlowQueries = "slow_queries_total"
	// Plan-cache counters (the names render in the Prometheus exposition
	// as blossomtree_plan_cache_{hits,misses,evictions}): lookups served
	// from the compiled-plan cache, lookups that compiled fresh, and
	// entries dropped by the LRU capacity bound. Snapshot invalidation is
	// not an eviction — superseded entries age out of the LRU naturally.
	MetricPlanCacheHits      = "plan_cache_hits"
	MetricPlanCacheMisses    = "plan_cache_misses"
	MetricPlanCacheEvictions = "plan_cache_evictions"
	// MetricQueriesShed counts admission-control refusals (429 at the
	// HTTP edge, internal/server).
	MetricQueriesShed = "queries_shed_total"
	// MetricFeedbackReplans counts cached templates recompiled with the
	// cardinalities their first run observed, after those drifted from
	// the template's estimates (at most once per template).
	MetricFeedbackReplans = "feedback_replans_total"
)

// HistQueryDuration is the registry name of the query-latency histogram
// every evaluation observes into (seconds; LatencyBuckets bounds). The
// Prometheus exposition renders it as
// blossomtree_query_duration_seconds.
const HistQueryDuration = "query_duration_seconds"
