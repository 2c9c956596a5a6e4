package exec

// The feedback loop lives in the plan cache. A cached template the
// planner chose (Auto) records its first successful run's per-vertex
// cardinalities; the next cache hit compares them with the template's
// own estimates and, when they drift by replanDrift or more, recompiles
// the template — Auto again, the same cost model — with the
// observations injected as plan.Options.CardHints and re-caches it
// under the same key. The replacement is marked replanned and never
// replans again.
//
// One observation is exact, not a sample: a template is compiled against
// one immutable snapshot, so its cardinalities are the same on every run.
// An Add publishes a new snapshot version, hence a new template and one
// new decision; an all-documents fan-out pins each document to its own
// version, so every document decides on its own observations. Forced
// strategies never replan — a user who pinned a strategy gets that
// strategy.

import (
	"math"

	"blossomtree/internal/flwor"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
)

// replanDrift is the est/act ratio (the larger of the over- and
// under-estimate directions) at or past which a cache hit replans.
const replanDrift = 2.0

// observation is one feedback key's estimated and actual cardinality in a
// template's first successful run.
type observation struct{ est, act float64 }

// observe walks a stats tree and aggregates the est/act counters of every
// operator carrying a FeedbackKey, one observation per key (two NoKs may
// share a root label; their counters sum, matching how a hint on that
// label prices both).
func observe(st *obs.OpStats) map[string]observation {
	out := make(map[string]observation)
	var walk func(*obs.OpStats)
	walk = func(s *obs.OpStats) {
		if s.FeedbackKey != "" {
			o := out[s.FeedbackKey]
			o.est += math.Max(s.EstOut, 0)
			// A skipped candidate counts as a would-be match: the
			// observation tracks the vertex's cardinality — the thing
			// EstOut estimates and a hint replaces — not how much of it
			// the consuming join happened to pull.
			o.act += float64(s.Emitted() + s.Skipped())
			out[s.FeedbackKey] = o
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(st)
	return out
}

// record keeps the first successful run's observations of a template that
// learns; later runs leave them alone.
func (c *compiled) record(st *obs.OpStats) {
	if !c.learns || c.first.Load() != nil {
		return
	}
	o := observe(st)
	c.first.CompareAndSwap(nil, &o)
}

// replanHints returns the cardinality hints and the drift of a template
// whose first run drifted from its estimates by replanDrift or more; ok
// is false before the first run and for a well-estimated template. Both
// sides are floored at 1 so empty results do not divide by zero.
func (c *compiled) replanHints() (hints map[string]float64, drift float64, ok bool) {
	first := c.first.Load()
	if first == nil {
		return nil, 0, false
	}
	drift = 1
	hints = make(map[string]float64, len(*first))
	for key, o := range *first {
		est, act := math.Max(o.est, 1), math.Max(o.act, 1)
		drift = math.Max(drift, math.Max(est/act, act/est))
		hints[key] = act
	}
	return hints, drift, drift >= replanDrift
}

// maybeReplan takes a cache-hit template's one replan decision: the first
// hit after its first run recompiles it with the observed
// cardinalities when they drifted, re-caching the result under the
// original key so later hits get it directly. Returns nil when nothing
// replans (the common case). The decision is a compare-and-swap, so
// concurrent hits on one template replan it at most once.
func maybeReplan(s *snapshot, expr flwor.Expr, key planKey, c *compiled, opts plan.Options) *compiled {
	if c.first.Load() == nil || !c.decided.CompareAndSwap(false, true) {
		return nil
	}
	hints, drift, ok := c.replanHints()
	if !ok {
		return nil
	}
	opts.CardHints = hints
	c2, err := compileTemplate(s, expr, opts)
	if err != nil || c2.nav {
		// A query that compiled before compiles again; treat any surprise
		// as "keep the working template" rather than failing the request.
		return nil
	}
	c2.replanned = true
	c2.fbDrift = drift
	s.state.plans.put(key, c2)
	obs.Default.Add(obs.MetricFeedbackReplans, 1)
	return c2
}
