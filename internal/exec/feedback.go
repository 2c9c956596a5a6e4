package exec

// The executor's side of the feedback loop (ROADMAP item 3). Two hooks
// close the estimate→actual circle, both on the evaluating engine's own
// store (State.Feedback):
//
//   - telemetry.emit records every successful planned evaluation's
//     per-operator est/act counters into it, keyed by the query-text
//     hash (not the snapshot version — history is a property of the
//     engine's workload and survives Add churn);
//   - compiledFor, on a plan-cache hit, asks the store whether the
//     cached template's estimates have drifted past the threshold and,
//     if so, recompiles it cost-based with the observed cardinalities
//     injected as plan.Options.CardHints and re-caches it under the
//     same key.
//
// Forced strategies still observe (their actuals warm the store) but
// never replan — a user who pinned a strategy gets that strategy.

import (
	"fmt"
	"math"

	"blossomtree/internal/feedback"
	"blossomtree/internal/flwor"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
)

// feedbackOps walks a stats tree and aggregates the est/act counters of
// every operator carrying a FeedbackKey, one observation per key (two
// NoKs may share a root label; their counters sum, matching how a hint
// on that label prices both).
func feedbackOps(st *obs.OpStats) []feedback.OpObservation {
	agg := make(map[string]*feedback.OpObservation)
	var order []string
	var walk func(*obs.OpStats)
	walk = func(s *obs.OpStats) {
		if s == nil {
			return
		}
		if s.FeedbackKey != "" {
			o, ok := agg[s.FeedbackKey]
			if !ok {
				o = &feedback.OpObservation{Key: s.FeedbackKey, EstOut: -1, EstNodes: -1}
				agg[s.FeedbackKey] = o
				order = append(order, s.FeedbackKey)
			}
			if s.EstOut >= 0 {
				o.EstOut = math.Max(o.EstOut, 0) + s.EstOut
			}
			if s.EstNodes >= 0 {
				o.EstNodes = math.Max(o.EstNodes, 0) + s.EstNodes
			}
			// A skipped candidate counts as a would-be match: the
			// observation tracks the vertex's cardinality — the thing
			// EstOut estimates and a hint replaces — not how much of it
			// the consuming join happened to pull.
			o.Emitted += s.Emitted() + s.Skipped()
			o.Scanned += s.Scanned()
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(st)
	out := make([]feedback.OpObservation, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	return out
}

// maybeReplan recompiles a cache-hit template with history-corrected
// cardinalities when the feedback store reports drift past the
// threshold, re-caching the result under the original key so later hits
// get the corrected template directly. Returns nil when nothing
// replans (the common case). Only strategy-choosing requests replan:
// forced strategies and navigational-fallback entries pass through
// untouched. The store's BeginReplan is an atomic check-and-arm, so
// concurrent hits on the same hash arm at most one replan.
func maybeReplan(s *snapshot, expr flwor.Expr, key planKey, c *compiled, opts plan.Options) *compiled {
	if c.nav || (opts.Strategy != plan.Auto && opts.Strategy != plan.CostBased) {
		return nil
	}
	hints, drift, ok := s.state.Feedback.BeginReplan(key.hash)
	if !ok {
		return nil
	}
	ropts := opts
	ropts.Strategy = plan.CostBased
	ropts.CardHints = hints
	c2, err := compileTemplate(s, expr, ropts)
	if err != nil || c2.nav {
		// A query that compiled before compiles again; treat any surprise
		// as "keep the working template" rather than failing the request.
		return nil
	}
	c2.replanned = true
	c2.fbDrift = drift
	s.state.plans.put(key, c2)
	return c2
}

// feedbackExplainOpts mirrors the cache-hit replan on the explain
// paths: when the query's history has armed a replan, EXPLAIN prices
// the plan the way the executor now runs it (cost-based with hints).
// It also renders the feedback header line, "" when the hash has too
// little history to be worth a line (below MinSamples and never
// replanned) so sparse test fixtures keep their golden output.
func feedbackExplainOpts(fb *feedback.Store, src string, opts plan.Options) (plan.Options, string) {
	sum, ok := fb.Lookup(obs.QueryHash(src))
	if !ok {
		return opts, ""
	}
	if sum.Replanned && (opts.Strategy == plan.Auto || opts.Strategy == plan.CostBased) {
		hints := make(map[string]float64, len(sum.Ops))
		for _, o := range sum.Ops {
			hints[o.Key] = math.Max(o.ActOut, 1)
		}
		opts.Strategy = plan.CostBased
		opts.CardHints = hints
	}
	cfg := fb.ConfigSnapshot()
	if sum.N < cfg.MinSamples && !sum.Replanned {
		return opts, ""
	}
	line := fmt.Sprintf("  feedback: n=%d, est/act drift=%.2fx", sum.N, sum.Drift)
	if sum.Replanned {
		line += ", replanned"
	}
	return opts, line + "\n"
}
