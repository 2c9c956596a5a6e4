package exec

// The compiled-plan cache: the compile pipeline (FLWOR → BlossomTree →
// NoK decomposition → physical plan) is deterministic in the query
// text, the planning options and the catalog snapshot, so its output is
// cached per engine (State) and shared by every evaluation path — Eval*,
// EvalAllDocs pins, EXPLAIN ANALYZE and the daemon's POST /query all
// reach it through evalExpr. It is the one way a compiled query is
// reused: a repeated text hits the entry its first run compiled.
//
// Keying by snapshot version makes invalidation free: Add publishes a
// new version, so entries compiled against the old catalog simply stop
// matching and age out of the LRU. A stale plan therefore cannot
// execute — there is no lock to take and nothing to flush on the load
// path. The cached entry is an immutable template: runs Fork it, so the
// template's skeleton is shared while all per-run operator state stays
// private to each execution.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"blossomtree/internal/core"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/xpath"
)

// planCacheCapacity bounds an engine's cache. Entries are plan skeletons
// (query, decomposition, explain notes) — small next to documents — so
// the bound guards against unbounded distinct-query streams, not
// memory pressure from normal serving.
const planCacheCapacity = 512

// planKey identifies one cacheable compilation.
type planKey struct {
	// version is the catalog snapshot the plan was compiled against.
	version uint64
	// hash is the sha256 query-text hash the telemetry layer also logs
	// (obs.QueryHash), so cache keys and query-log records correlate.
	hash string
	// strategy is the one planning-time option a caller sets; per-run
	// options (budgets, analyze, telemetry) do not shape the template
	// and stay out of the key.
	strategy plan.Strategy
}

// compiled is one cache entry, immutable but for its feedback fields.
type compiled struct {
	q      *core.Query
	isPath bool
	// textTail is the trailing text() step compile peeled off a bare
	// path; projectPathResult re-applies it to the matched elements.
	textTail *xpath.Step
	// tail lays out a FLWOR's rows; nil for a bare path.
	tail *tail
	// tmpl is the pristine plan template. It is never executed; every
	// run (cached or not) Forks it.
	tmpl *plan.Plan
	// nav marks a navigational-fallback entry: the query parses but lies
	// outside the BlossomTree fragment (core.ErrOutsideFragment), so every
	// run evaluates it with the navigational evaluator instead of a plan.
	// The routing decision itself is what the cache holds — q and tmpl are
	// nil — so repeated fallback queries skip recompilation and report
	// Cached like planned ones.
	nav bool
	// navReason is the fragment violation that forced the fallback,
	// surfaced by EXPLAIN.
	navReason string
	// learns marks a cached template the planner chose: first holds its
	// first successful run's observations, and decided its one replan
	// decision (feedback.go). These are the only fields written after the
	// entry is cached.
	learns  bool
	first   atomic.Pointer[map[string]observation]
	decided atomic.Bool
	// replanned marks a template recompiled from its predecessor's
	// observations after its estimates drifted from them; fbDrift is the
	// est/act ratio that triggered it. Both flow into the query log and
	// the Result so callers can see the loop act.
	replanned bool
	fbDrift   float64
}

// planCache is a mutex-guarded LRU. The lock is held only for the map
// and list bookkeeping of a lookup; compilation happens outside it, so
// concurrent misses on the same key may compile twice and the later put
// wins — harmless, and cheaper than holding the lock across planning.
type planCache struct {
	mu  sync.Mutex
	lru list.List // front = most recently used; values are *planCacheEntry
	m   map[planKey]*list.Element
}

type planCacheEntry struct {
	key planKey
	c   *compiled
}

// get returns the cached compilation for the key, counting the hit or
// miss into the process-wide registry.
func (pc *planCache) get(k planKey) (*compiled, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.m[k]
	if !ok {
		obs.Default.Add(obs.MetricPlanCacheMisses, 1)
		return nil, false
	}
	pc.lru.MoveToFront(el)
	obs.Default.Add(obs.MetricPlanCacheHits, 1)
	return el.Value.(*planCacheEntry).c, true
}

// peek returns the cached compilation without counting a lookup or
// touching the LRU order: EXPLAIN reads the cache, it does not use it.
func (pc *planCache) peek(k planKey) (*compiled, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.m[k]
	if !ok {
		return nil, false
	}
	return el.Value.(*planCacheEntry).c, true
}

// put installs a compilation, evicting least-recently-used entries past
// capacity.
func (pc *planCache) put(k planKey, c *compiled) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.m[k]; ok {
		pc.lru.MoveToFront(el)
		el.Value.(*planCacheEntry).c = c
		return
	}
	pc.m[k] = pc.lru.PushFront(&planCacheEntry{key: k, c: c})
	for pc.lru.Len() > planCacheCapacity {
		el := pc.lru.Back()
		pc.lru.Remove(el)
		delete(pc.m, el.Value.(*planCacheEntry).key)
		obs.Default.Add(obs.MetricPlanCacheEvictions, 1)
	}
}
