package exec

import (
	"context"

	"blossomtree/internal/plan"
)

// Prepared is a parsed, compile-checked query bound to a catalog — the
// prepared-statement shape of the serving API. Preparation parses once
// and eagerly compiles against the current catalog snapshot, so syntax
// and planning errors surface at Prepare time and the compiled plan is
// seeded into the engine's plan cache; each run then evaluates the kept
// parse against the snapshot current at that moment, hitting the cache
// while the catalog is unchanged and transparently recompiling (through
// the same cache) after any Add.
//
// A Prepared is immutable and safe for concurrent use: concurrent runs
// share the cached plan template and each Forks private per-run state.
type Prepared struct {
	e    *Engine
	q    *parsed
	opts plan.Options
}

// Prepare parses and compile-checks a query for repeated execution
// with the given options. The options are captured; per-run control
// (a context) is supplied to RunContext.
func (e *Engine) Prepare(src string, opts plan.Options) (*Prepared, error) {
	q, err := parse(src)
	if err != nil {
		return nil, err
	}
	if err := check(e.snapshot(), q, opts); err != nil {
		return nil, err
	}
	return &Prepared{e: e, q: q, opts: opts}, nil
}

// Source returns the prepared query's text.
func (p *Prepared) Source() string { return p.q.src }

// RunContext evaluates the prepared query against the current catalog
// under a context: the run is canceled when ctx is. The prepared
// options are not mutated, so concurrent RunContext calls with
// different contexts are safe.
func (p *Prepared) RunContext(ctx context.Context) (*Result, error) {
	opts := p.opts
	opts.Ctx = ctx
	opts.Gov = nil // force a fresh governor bound to this run's context
	return evalExpr(p.e.snapshot(), p.q, opts)
}
