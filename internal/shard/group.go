package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"blossomtree/internal/exec"
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/segstore"
	"blossomtree/internal/xmltree"
)

// Config configures a shard group.
type Config struct {
	// Shards is the number of in-process engine shards (minimum 1).
	Shards int
	// BuildIndexes is passed through to each shard engine.
	BuildIndexes bool
	// RetryBackoff is the base backoff before the single retry of a
	// failed shard sub-query; the actual sleep adds up to one extra
	// backoff of jitter. Defaults to 5ms when zero.
	RetryBackoff time.Duration
}

// Group is a consistent-hash router over N in-process engine shards.
// Documents are assigned to shards by URI hash at Add time; queries
// naming a single document route to its owning shard, and catalog-wide
// scatters fan out across every populated shard.
//
// A Group is safe for concurrent use under the same discipline as the
// engine: Add installs documents copy-on-write inside each shard, and
// the routing table is guarded by its own lock.
type Group struct {
	cfg  Config
	ring *ring

	shards []*exec.Engine
	// hists are the per-shard latency histograms
	// (shard_<i>_query_duration_seconds in the default registry); the
	// merged cross-shard view comes from LatencyHistogram via
	// Histogram.Merge.
	hists []*obs.Histogram

	mu    sync.RWMutex
	uris  map[string]int // URI → owning shard
	order []string       // registration order; order[0] anchors absolute paths
}

// New returns a group of cfg.Shards engine shards.
func New(cfg Config) *Group {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	g := &Group{
		cfg:    cfg,
		ring:   newRing(cfg.Shards),
		shards: make([]*exec.Engine, cfg.Shards),
		hists:  make([]*obs.Histogram, cfg.Shards),
		uris:   map[string]int{},
	}
	// The shards share shard 0's state: one engine to the group's owner.
	g.shards[0] = exec.NewWithConfig(exec.Config{BuildIndexes: cfg.BuildIndexes})
	for i := range g.shards {
		if i > 0 {
			g.shards[i] = g.shards[0].Peer()
		}
		g.hists[i] = obs.Default.Histogram(fmt.Sprintf("shard_%d_query_duration_seconds", i), obs.LatencyBuckets)
	}
	return g
}

// State returns the state the group's shards share.
func (g *Group) State() *exec.State { return g.shards[0].State() }

// Shards returns the number of shards in the group.
func (g *Group) Shards() int { return len(g.shards) }

// ShardOf returns the shard index owning uri and whether uri is
// registered.
func (g *Group) ShardOf(uri string) (int, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.uris[uri]
	return s, ok
}

// Add registers a document, routing it to its ring-assigned shard.
// Re-adding a URI replaces the document on the shard that already owns
// it.
func (g *Group) Add(uri string, doc *xmltree.Document) {
	g.mu.Lock()
	si, ok := g.uris[uri]
	if !ok {
		si = g.ring.shardOf(uri)
		g.uris[uri] = si
		g.order = append(g.order, uri)
	}
	g.mu.Unlock()
	g.shards[si].Add(uri, doc)
}

// AttachStore routes every servable document of a persistent segment
// store to its ring-owned shard: each shard engine attaches the same
// store restricted to the URI subset the consistent hash assigned it,
// so a store reopened after a restart reproduces the exact document
// placement the original Load produced (ring assignment depends only on
// the URI and the shard count). Documents stay lazy — a shard
// materializes a document only when a query first touches it.
func (g *Group) AttachStore(st *segstore.Store) {
	per := make([][]string, len(g.shards))
	g.mu.Lock()
	for _, uri := range st.URIs() {
		si, ok := g.uris[uri]
		if !ok {
			si = g.ring.shardOf(uri)
			g.uris[uri] = si
			g.order = append(g.order, uri)
		}
		per[si] = append(per[si], uri)
	}
	g.mu.Unlock()
	for si, uris := range per {
		if len(uris) > 0 {
			g.shards[si].AttachStoreURIs(st, uris)
		}
	}
}

// Document returns the document registered under uri, applying the
// same fallback rules as the unsharded engine (empty URI or a
// single-document catalog resolve to the first registered document).
func (g *Group) Document(uri string) (*xmltree.Document, bool) {
	target, si, err := g.route(docRefs{uri: true})
	if err != nil {
		return nil, false
	}
	return g.shards[si].Document(target)
}

// route resolves a query's document references to the single document
// it evaluates against and the shard owning it. Each reference resolves
// under the engine's own rule (exec.ResolveURI) against the group-wide
// catalog — absolute paths anchor at the first registered document —
// and a query naming several distinct documents is rejected (evaluate
// per document).
func (g *Group) route(refs docRefs) (string, int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(refs) == 0 {
		refs = docRefs{"": true}
	}
	first := ""
	if len(g.order) > 0 {
		first = g.order[0]
	}
	targets := map[string]bool{}
	for u := range refs {
		_, ok := g.uris[u]
		t, err := exec.ResolveURI(u, ok, first, len(g.order))
		if err != nil {
			return "", 0, err
		}
		targets[t] = true
	}
	us := make([]string, 0, len(targets))
	for u := range targets {
		us = append(us, u)
	}
	if len(us) > 1 {
		sort.Strings(us)
		return "", 0, fmt.Errorf("shard: query spans multiple documents (%q, %q); evaluate per document", us[0], us[1])
	}
	return us[0], g.uris[us[0]], nil
}

// view routes an already-parsed query to the shard owning its document
// and returns that shard's catalog pinned to the document, so sharded
// evaluation preserves the unsharded engine's semantics regardless of
// which other documents share the shard.
func (g *Group) view(refs docRefs) (exec.View, int, error) {
	uri, si, err := g.route(refs)
	if err != nil {
		return exec.View{}, 0, err
	}
	v, err := g.shards[si].View().Pin(uri)
	return v, si, err
}

// eval is the routed single-document evaluation behind EvalOptions,
// EvalBatch and prepared runs.
func (g *Group) eval(refs docRefs, q *exec.Parsed, opts plan.Options) (*exec.Result, error) {
	v, si, err := g.view(refs)
	if err != nil {
		return nil, err
	}
	obs.Default.Add(obs.MetricShardQueries, 1)
	t0 := time.Now()
	res, err := v.Eval(q, opts)
	g.hists[si].ObserveDuration(time.Since(t0))
	return res, err
}

// EvalOptions routes a single-document query to the shard owning its
// document and evaluates it there.
func (g *Group) EvalOptions(src string, opts plan.Options) (*exec.Result, error) {
	q, err := exec.Parse(src)
	if err != nil {
		return nil, err
	}
	return g.eval(collectDocRefs(q.Expr), q, opts)
}

// Explain routes EXPLAIN (EXPLAIN ANALYZE with opts.Analyze) like
// EvalOptions.
func (g *Group) Explain(src string, opts plan.Options) (string, error) {
	q, err := exec.Parse(src)
	if err != nil {
		return "", err
	}
	v, _, err := g.view(collectDocRefs(q.Expr))
	if err != nil {
		return "", err
	}
	return v.Explain(q, opts)
}

// Prepare parses once and compile-checks on the owning shard; every run
// re-routes the kept parse against the catalog current at that moment.
// An empty catalog has nothing to route to yet and defers the check to
// the first run, like the unsharded engine.
func (g *Group) Prepare(src string, opts plan.Options) (*exec.Prepared, error) {
	q, err := exec.Parse(src)
	if err != nil {
		return nil, err
	}
	refs := collectDocRefs(q.Expr)
	if len(g.populatedShards()) > 0 {
		v, _, err := g.view(refs)
		if err != nil {
			return nil, err
		}
		if err := v.Check(q, opts); err != nil {
			return nil, err
		}
	}
	return exec.NewPrepared(q, opts, func(q *exec.Parsed, opts plan.Options) (*exec.Result, error) {
		return g.eval(refs, q, opts)
	}), nil
}

// EvalBatch evaluates a batch of routed queries across the group with
// at most workers concurrent evaluations.
func (g *Group) EvalBatch(srcs []string, opts plan.Options, workers int) []exec.BatchResult {
	out := make([]exec.BatchResult, len(srcs))
	exec.ForEachIndex(len(srcs), workers, func(i int) {
		res, err := g.EvalOptions(srcs[i], exec.BatchOptions(opts, i))
		out[i] = exec.BatchResult{Query: srcs[i], Result: res, Err: err}
	})
	return out
}

// shardOutcome is one shard's contribution to a scatter.
type shardOutcome struct {
	shard    int
	results  []exec.DocResult
	err      error // terminal failure (after the retry)
	attempts int
	stats    *obs.OpStats
}

// EvalAllDocs scatters one query across every populated shard and
// gathers the per-document results in URI order — the sharded form of
// the engine's catalog-wide scan.
//
// Fan-out is bounded: at most fanout shard sub-queries run concurrently
// (0 means all shards at once), each under its own per-shard governor
// derived from the request budget — the node budget is split evenly
// across participating shards and the deadline is shared (shards run
// concurrently, so each gets the full remaining wall-clock; MaxOutput
// stays per-shard). workersPerShard bounds each shard's internal
// per-document fan-out.
//
// A shard sub-query fails when fault injection kills its dispatch or
// its governor records a sticky violation; per-document errors without
// a shard-level failure stay per-document results, exactly as in the
// unsharded engine. A failed shard is retried once with jittered
// backoff; if it fails again the gather degrades — the failed shard's
// documents are omitted and the returned DegradedInfo carries the
// failed shard list, the errors, and a synthetic gather stats tree
// including the failed shards' partial abort stats. Only when every
// participating shard fails does EvalAllDocs return an error.
func (g *Group) EvalAllDocs(src string, opts plan.Options, fanout, workersPerShard int) ([]exec.DocResult, *exec.DegradedInfo, error) {
	q, err := exec.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	participants := g.populatedShards()
	if len(participants) == 0 {
		return nil, nil, nil
	}
	// The scatter deadline anchors here: retries recompute the remaining
	// wall-clock against it, so a retried shard never outlives the
	// budget the caller set.
	var deadline time.Time
	if opts.Budget.Timeout > 0 {
		deadline = time.Now().Add(opts.Budget.Timeout)
	}
	inj := opts.Fault
	outcomes := make([]shardOutcome, len(participants))
	if fanout <= 0 {
		fanout = len(participants)
	}
	exec.ForEachIndex(len(participants), fanout, func(i int) {
		outcomes[i] = g.evalShard(participants[i], q, opts, deadline, len(participants), workersPerShard, inj)
	})
	return g.gather(outcomes, inj)
}

// populatedShards returns the indexes of shards holding at least one
// document, ascending.
func (g *Group) populatedShards() []int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[int]bool)
	for _, si := range g.uris {
		seen[si] = true
	}
	out := make([]int, 0, len(seen))
	for si := range seen {
		out = append(out, si)
	}
	sort.Ints(out)
	return out
}

// shardBudget derives one shard's budget from the request budget: the
// node budget splits evenly across n shards (ceiling, so the shard sum
// covers the request bound), the deadline is the remaining wall-clock
// (shards run concurrently), and MaxOutput passes through per shard.
func shardBudget(b gov.Budget, n int, deadline time.Time) gov.Budget {
	out := gov.Budget{MaxOutput: b.MaxOutput}
	if b.MaxNodes > 0 {
		out.MaxNodes = (b.MaxNodes + int64(n) - 1) / int64(n)
	}
	if !deadline.IsZero() {
		rem := time.Until(deadline)
		if rem <= 0 {
			rem = time.Nanosecond // already expired: fail fast in the governor
		}
		out.Timeout = rem
	}
	return out
}

// evalShard runs one shard's sub-query, retrying once on failure.
func (g *Group) evalShard(si int, q *exec.Parsed, opts plan.Options, deadline time.Time, n, workers int, inj *fault.Injector) shardOutcome {
	out := shardOutcome{shard: si}
	for attempt := 0; attempt < 2; attempt++ {
		out.attempts++
		obs.Default.Add(obs.MetricShardQueries, 1)
		rs, sg, err := g.attemptShard(si, q, opts, deadline, n, workers, inj)
		st := obs.NewOpStats(fmt.Sprintf("shard[%d]", si), fmt.Sprintf("attempt %d", out.attempts))
		if sg != nil {
			st.AddScanned(sg.NodesScanned())
			st.AddEmitted(sg.Outputs())
		}
		if err == nil {
			out.results, out.err, out.stats = rs, nil, st
			return out
		}
		obs.Default.Add(obs.MetricShardFailures, 1)
		if ps, ok := gov.StatsOf(err); ok {
			st.Adopt(ps)
		}
		out.err, out.stats = err, st
		// A canceled parent context or an expired scatter deadline makes
		// the retry futile — every re-dispatch would abort the same way.
		if attempt == 0 {
			if opts.Ctx != nil && opts.Ctx.Err() != nil {
				return out
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return out
			}
			obs.Default.Add(obs.MetricShardRetries, 1)
			base := g.cfg.RetryBackoff
			time.Sleep(base + time.Duration(rand.Int63n(int64(base))))
		}
	}
	return out
}

// attemptShard is one dispatch of a shard sub-query: a scatter fault
// hit, a fresh per-shard governor, the shard-local all-documents
// evaluation, and the shard's latency observation.
func (g *Group) attemptShard(si int, q *exec.Parsed, opts plan.Options, deadline time.Time, n, workers int, inj *fault.Injector) ([]exec.DocResult, *gov.Governor, error) {
	if err := inj.Hit(fault.SiteShardScatter); err != nil {
		return nil, nil, err
	}
	sopts := opts
	sopts.Budget = shardBudget(opts.Budget, n, deadline)
	sopts.Gov = gov.New(opts.Ctx, sopts.Budget, opts.Fault)
	if sopts.QueryID != "" {
		sopts.QueryID = fmt.Sprintf("%s-s%d", opts.QueryID, si)
	}
	t0 := time.Now()
	rs := g.shards[si].View().EvalAllDocs(q, sopts, workers)
	g.hists[si].ObserveDuration(time.Since(t0))
	if serr := sopts.Gov.Err(); serr != nil {
		return rs, sopts.Gov, serr
	}
	return rs, sopts.Gov, nil
}

// gather merges the per-shard outcomes into one URI-ordered result
// list, degrading failed shards out instead of failing the request.
func (g *Group) gather(outcomes []shardOutcome, inj *fault.Injector) ([]exec.DocResult, *exec.DegradedInfo, error) {
	root := obs.NewOpStats("shard.gather", fmt.Sprintf("%d shards", len(outcomes)))
	var failed []shardOutcome
	var lists [][]exec.DocResult
	for _, oc := range outcomes {
		root.Adopt(oc.stats)
		if oc.err == nil {
			// A gather fault models a shard whose response was lost after
			// evaluation: its results drop from the merge and the request
			// degrades (there is nothing left to retry).
			if err := inj.Hit(fault.SiteShardGather); err != nil {
				oc.err = err
				obs.Default.Add(obs.MetricShardFailures, 1)
				failed = append(failed, oc)
				continue
			}
			lists = append(lists, oc.results)
			continue
		}
		failed = append(failed, oc)
	}
	merged := mergeBalanced(lists)
	if len(failed) == 0 {
		return merged, nil, nil
	}
	if len(failed) == len(outcomes) {
		return nil, nil, failed[0].err
	}
	obs.Default.Add(obs.MetricShardDegraded, 1)
	deg := &exec.DegradedInfo{Stats: root}
	for _, oc := range failed {
		deg.FailedShards = append(deg.FailedShards, oc.shard)
		deg.Errors = append(deg.Errors, oc.err.Error())
	}
	return merged, deg, nil
}

// mergeBalanced folds the per-shard URI-sorted result lists pairwise —
// the same balanced-merge shape nestedlist.MergeBalanced uses — so the
// gather does O(log n) merge levels over n shards.
func mergeBalanced(lists [][]exec.DocResult) []exec.DocResult {
	if len(lists) == 0 {
		return nil
	}
	for len(lists) > 1 {
		next := make([][]exec.DocResult, 0, (len(lists)+1)/2)
		for i := 0; i < len(lists); i += 2 {
			if i+1 == len(lists) {
				next = append(next, lists[i])
				break
			}
			next = append(next, mergeTwo(lists[i], lists[i+1]))
		}
		lists = next
	}
	return lists[0]
}

// mergeTwo merges two URI-sorted result lists.
func mergeTwo(a, b []exec.DocResult) []exec.DocResult {
	out := make([]exec.DocResult, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].URI <= b[j].URI {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// MergeResults assembles the merged single-result view of a gather:
// node and environment rows concatenated in URI order over the
// surviving documents, carrying the degradation record. Constructed
// outputs stay per-document (they have no cross-document merge), so
// Output is nil.
func MergeResults(docs []exec.DocResult, deg *exec.DegradedInfo) *exec.Result {
	res := &exec.Result{Degraded: deg}
	for _, dr := range docs {
		if dr.Err != nil || dr.Result == nil {
			continue
		}
		res.Nodes = append(res.Nodes, dr.Result.Nodes...)
		res.Envs = append(res.Envs, dr.Result.Envs...)
	}
	return res
}

// LatencyHistogram returns the merged cross-shard latency view, built
// from the per-shard histograms with Histogram.Merge.
func (g *Group) LatencyHistogram() *obs.Histogram {
	merged := obs.NewHistogram("shard_query_duration_seconds", obs.LatencyBuckets)
	for _, h := range g.hists {
		merged.Merge(h)
	}
	return merged
}
