// Package plan turns a compiled BlossomTree query into an executable
// physical plan. It decomposes the BlossomTree into NoK pattern trees
// (Algorithm 1), anchors each NoK at its root's tag-index postings,
// picks a structural-join algorithm for the cut //-edges — pipelined
// merge join, bounded nested-loop join, or the holistic TwigStack —
// wires crossing edges as join predicates or selections, and exposes the
// result as a pull stream of NestedList instances — or, from TwigStack,
// as flat rows.
//
// Auto chooses the strategy with the cost model (cost.go): the
// cheapest of PL, NL and TS whose preconditions hold. The same chooser
// prices the first plan and the feedback replan, which only adds
// observed cardinalities (Options.CardHints). A forced strategy is
// honoured as given, except that a forced PL falls back to NL on a
// wildcard //-join outer and a forced TS on an incompatible query
// fails.
package plan

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"time"

	"blossomtree/internal/core"
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/join"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// Strategy selects the structural-join algorithm family.
type Strategy int

// Strategies.
const (
	Auto         Strategy = iota // the cost model's cheapest sound strategy
	Pipelined                    // PL: merge-join over NoK iterators (§4.2)
	BoundedNL                    // NL: bounded nested-loop join (§4.3)
	Twig                         // TS: holistic TwigStack over tag indexes
	Navigational                 // whole-query navigational evaluation (the XH stand-in)
)

// String names the strategy as in the paper's tables.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Pipelined:
		return "PL"
	case BoundedNL:
		return "NL"
	case Twig:
		return "TS"
	case Navigational:
		return "XH"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures planning.
type Options struct {
	Strategy Strategy
	// Index is the document's tag index, which TwigStack, the NoK scans
	// and the cost model read. Build requires it.
	Index *index.TagIndex
	// Stats feeds the cost model; if zero-valued, the model assumes
	// non-recursive input.
	Stats xmltree.Stats
	// CardHints overrides the cost model's cardinality synopsis for
	// specific vertices, keyed by core.Vertex.Label(). The feedback loop
	// injects a cached template's first-run output counts here when they
	// drift from its estimates, so the replan prices strategies with
	// what actually happened instead of the static synopsis. Hints price
	// join work only (cardinality()); scans, TwigStack's streams and
	// region sizes keep the static figures, because a scan reads every
	// posting of its tag however few of them match.
	CardHints map[string]float64
	// Analyze enables per-operator wall-clock timing on the plan's stats
	// tree (EXPLAIN ANALYZE). Counters are collected regardless; only
	// timing is gated, because it costs two clock reads per GetNext.
	Analyze bool
	// Ctx, when non-nil, cancels the evaluation: operators poll it
	// (amortized) and Execute returns gov.ErrCanceled-wrapped errors.
	Ctx context.Context
	// Budget bounds the evaluation's resources (nodes scanned, result
	// tuples, wall clock); exhaustion aborts with gov.ErrBudgetExceeded.
	Budget gov.Budget
	// Fault, when non-nil, is the test-only deterministic fault
	// injector the operators consult at their instrumentation points.
	Fault *fault.Injector
	// Gov, when non-nil, is an externally created governor to use
	// instead of building one from Ctx/Budget/Fault (the executor
	// shares one governor between planning and residual evaluation).
	Gov *gov.Governor
	// QueryID identifies the evaluation's record in the query log, the
	// engine's ring of recent records, and the daemon's /trace endpoint.
	// Empty means the executor generates one.
	QueryID string
	// Logger, when non-nil, receives one structured record per
	// evaluation (query ID, hash, strategy, verdict, work, latency).
	Logger *slog.Logger
	// SlowQueryThreshold promotes evaluations at or past the threshold
	// to Warn-level log records carrying the full EXPLAIN ANALYZE tree;
	// 0 disables slow-query capture.
	SlowQueryThreshold time.Duration
}

// governor returns the options' governor, building one on demand.
func (o *Options) governor() *gov.Governor {
	if o.Gov == nil {
		o.Gov = gov.New(o.Ctx, o.Budget, o.Fault)
	}
	return o.Gov
}

// Plan is an executable physical plan.
//
// A Plan has two lives: freshly Built, it is a template whose skeleton
// (query, decomposition, strategy, document, planning inputs) is
// immutable and safe to share — the executor's plan cache holds such
// templates; Fork derives an execution copy carrying the per-run state
// (governor, operator bookkeeping, stats tree), and any number of
// forks may execute concurrently.
type Plan struct {
	Query    *core.Query
	Decomp   *core.Decomposition
	Strategy Strategy
	// Cached marks a fork derived from a plan-cache hit; Explain renders
	// it as a "plan cache: hit" line.
	Cached bool

	opts Options
	gov  *gov.Governor // nil when ungoverned (no ctx/budget/fault)
	expl []obs.Text    // the EXPLAIN notes, formatted when Explain reads them
	// twigErr is why the query cannot run as one TwigStack join (nil
	// when it can), decided once by Build.
	twigErr error

	usedCrossings map[*core.Crossing]bool
	errChecks     []func() error
	// stats is the root of the per-operator statistics tree of the most
	// recent build; rebuilt fresh on every build so a plan
	// explained and then executed does not double-count.
	stats *obs.OpStats
	// stopAfter is how many root emissions Execute pulls, -1 for all:
	// the query's row limit when the root emits the for-clause's
	// bindings in iteration order (limitRows), 0 when no row can pass.
	// Set by every build.
	stopAfter int
}

// watch registers a deferred-error source to be checked after draining.
func (p *Plan) watch(f func() error) { p.errChecks = append(p.errChecks, f) }

// Build compiles the query into a plan against the document.
func Build(q *core.Query, doc *xmltree.Document, opts Options) (*Plan, error) {
	if opts.Index == nil || opts.Index.Document() != doc {
		return nil, fmt.Errorf("plan: no tag index for the document")
	}
	// Upward tree edges (parent/ancestor steps the compiler could not
	// rewrite away) have no join-algebra form: reject them before
	// decomposition so the executor can route the query to the
	// navigational fallback.
	for _, v := range q.Tree.Vertices {
		if v.Parent != nil && v.ParentRel.Upward() {
			return nil, fmt.Errorf("plan: %s edge to %s is %w", v.ParentRel, v.Label(), core.ErrOutsideFragment)
		}
	}
	d, err := core.Decompose(q.Tree)
	if err != nil {
		return nil, err
	}
	// Positional predicates under a nested //-cut have no well-defined
	// stream position in the join algebra (the PositionFilter needs a
	// top-level scan). And even on a top-level scan, the PositionFilter
	// counts the instances the matcher emits — so any other constraint or
	// same-NoK mandatory child on the target would be applied BEFORE the
	// position, inverting the step's filter order ([1] counts the step's
	// tag matches before later filters). Detect both shapes at build time
	// so they fall back navigationally instead of answering wrong.
	for _, l := range d.Links {
		root := l.Child.Root
		if _, has := root.PositionConstraint(); !has {
			continue
		}
		if !l.IsScan() {
			return nil, fmt.Errorf("plan: positional predicate on nested //-step %s is %w",
				root.Label(), core.ErrOutsideFragment)
		}
		if len(root.Constraints) > 1 {
			return nil, fmt.Errorf("plan: positional predicate combined with other filters on scan target %s is %w",
				root.Label(), core.ErrOutsideFragment)
		}
		for _, c := range root.Children {
			if c.ParentRel.Local() && c.ParentMode == core.Mandatory {
				return nil, fmt.Errorf("plan: positional predicate on scan target %s with mandatory subtree %s is %w",
					root.Label(), c.Label(), core.ErrOutsideFragment)
			}
		}
	}
	p := &Plan{Query: q, Decomp: d, opts: opts}
	p.gov = p.opts.governor()
	p.twigErr = p.twigCompatible()
	p.Strategy = opts.Strategy
	if p.Strategy == Auto {
		p.Strategy = p.chooseStrategy()
	}
	if p.Strategy == Twig && p.twigErr != nil {
		return nil, p.twigErr
	}
	if p.Strategy == Pipelined && p.wildcardOuter() {
		// Unlike Twig, an explicit Pipelined request falls back rather
		// than answer wrong. (Recursion alone does not trigger
		// this: a caller forcing PL on a recursive document vouches for
		// its input.)
		p.note("pipelined join unsound (a wildcard //-join outer matches nested elements); falling back")
		p.Strategy = BoundedNL
	}
	if len(opts.CardHints) > 0 {
		p.note("feedback: %d cardinality hints applied to the cost model", len(opts.CardHints))
	}
	p.note("strategy %s over %d NoKs, %d links, %d crossings",
		p.Strategy, len(d.NoKs), len(d.Links), len(q.Tree.Crossings))
	return p, nil
}

func (p *Plan) note(format string, args ...any) {
	p.expl = append(p.expl, obs.Textf(format, args...))
}

// wildcardOuter reports whether some //-join's outer vertex is a
// wildcard. Its matches nest even when no tag of the document is
// recursive, so the join's outer items are not pairwise disjoint.
func (p *Plan) wildcardOuter() bool {
	for _, l := range p.Decomp.Links {
		if !l.IsScan() && l.Parent.Test == "*" {
			return true
		}
	}
	return false
}

// pipelinedSound reports whether the pipelined join's precondition
// holds for this plan (Theorem 2: the outer items of every //-join are
// pairwise disjoint, so its inputs are order-preserving).
func (p *Plan) pipelinedSound() bool {
	return !p.opts.Stats.Recursive && !p.wildcardOuter()
}

// twigCompatible reports whether the whole query can run as one holistic
// twig join: a single pattern tree, no crossings, no optional edges, no
// positional or following-sibling features.
func (p *Plan) twigCompatible() error {
	if len(p.Query.Tree.Roots) != 1 || len(p.Query.Tree.Crossings) > 0 || len(p.Query.Residual) > 0 {
		return fmt.Errorf("plan: TwigStack handles single pattern trees without crossings")
	}
	// The twig emits one match per combination of variable bindings, so
	// a let variable would get one row per witness instead of one group.
	// Its edge is normally optional (rejected below); a where-clause over
	// the same path makes it mandatory, which must not let it through.
	for _, v := range p.Query.Vars {
		if !v.ForBound && !v.IsDocRoot() {
			return fmt.Errorf("plan: TwigStack cannot group the matches of let-bound %s", v.Label())
		}
	}
	root := p.Query.Tree.Roots[0]
	if root.IsDocRoot() && len(root.Children) != 1 {
		return fmt.Errorf("plan: TwigStack needs a single twig root")
	}
	start := root
	if root.IsDocRoot() {
		start = root.Children[0]
	}
	_, err := join.NewTwigStack(start, p.opts.Index)
	return err
}

// Fork returns an execution copy of a compiled plan template. The
// immutable skeleton is shared; planning-time inputs (strategy, index,
// statistics, hints) come from the template so a cached plan
// cannot be re-shaped by run options, while everything per-run —
// context, budget, fault injector, analyze, telemetry
// identity and the governor — comes from opts. The fork's explain
// notes are the template's, clipped: a build appends access-method
// notes, and an append to a clipped slice copies it first, so
// concurrent forks never write into the template's array.
func (p *Plan) Fork(opts Options) *Plan {
	opts.Strategy = p.opts.Strategy
	opts.Index = p.opts.Index
	opts.Stats = p.opts.Stats
	opts.CardHints = p.opts.CardHints
	f := &Plan{
		Query:    p.Query,
		Decomp:   p.Decomp,
		Strategy: p.Strategy,
		opts:     opts,
		expl:     slices.Clip(p.expl),
		twigErr:  p.twigErr,
	}
	f.gov = f.opts.governor()
	return f
}

// Explain renders the decomposition and the chosen physical operators.
func (p *Plan) Explain() string {
	var sb strings.Builder
	sb.WriteString("plan strategy: " + p.Strategy.String() + "\n")
	if p.Cached {
		sb.WriteString("  plan cache: hit\n")
	}
	for _, e := range p.expl {
		sb.WriteString("  " + e.String() + "\n")
	}
	sb.WriteString(p.Decomp.String())
	return sb.String()
}

// Instances is what a plan's run delivers. A NoK plan's operators
// deliver NestedList instances (Lists). A TwigStack plan delivers its
// rows as they are (Rows): one per distinct combination of the query
// variables' bindings, one column per variable vertex (Cols), ordered by
// the columns' document order. No NestedList is built for them.
type Instances struct {
	Lists []*nestedlist.List
	Rows  [][]*xmltree.Node
	Cols  []*core.Vertex
}

// Len is the number of instances or rows.
func (in *Instances) Len() int { return len(in.Lists) + len(in.Rows) }

// Bound returns the nodes that instance or row i binds to the returning
// node rn.
func (in *Instances) Bound(i int, rn *core.ReturnNode) []*xmltree.Node {
	if in.Lists != nil {
		return in.Lists[i].ProjectSlot(rn.Slot)
	}
	if k := slices.Index(in.Cols, rn.Vertex); k >= 0 {
		return in.Rows[i][k : k+1 : k+1]
	}
	return nil
}

// Execute runs the plan and materializes the resulting instances. A
// governance violation (cancellation, deadline, budget) aborts with the
// typed gov error carrying the partial per-operator stats tree recorded
// up to the abort — the partial EXPLAIN ANALYZE.
func (p *Plan) Execute() (*Instances, error) {
	if err := p.gov.CheckNow(); err != nil {
		return nil, gov.WithStats(err, p.stats)
	}
	op, out, err := p.build()
	if err != nil {
		return nil, gov.WithStats(err, p.stats)
	}
	// Root-level results are the only emissions charged against the
	// output budget (intermediate operators emit freely). A limited root
	// is not pulled past its last row.
	if out == nil {
		out = &Instances{}
		for len(out.Lists) != p.stopAfter {
			l := op.GetNext()
			if l == nil {
				break
			}
			out.Lists = append(out.Lists, l)
			if err := p.gov.Output(1); err != nil {
				return nil, gov.WithStats(err, p.stats)
			}
		}
	}
	// TwigStack's rows are ready: each one handed over counts as the
	// operator's call and emission.
	for range out.Rows {
		p.stats.AddCall()
		p.stats.AddEmitted(1)
		if err := p.gov.Output(1); err != nil {
			return nil, gov.WithStats(err, p.stats)
		}
	}
	if err := p.Err(); err != nil {
		return nil, gov.WithStats(err, p.stats)
	}
	return out, nil
}

// Err surfaces any deferred stream error from the plan's operators or
// its governor.
func (p *Plan) Err() error {
	for _, f := range p.errChecks {
		if err := f(); err != nil {
			return err
		}
	}
	return p.gov.Err()
}

// Prepare builds the plan without draining it: its operators, its
// access-method notes and a fresh per-operator statistics tree
// (StatsTree) mirroring its shape — what EXPLAIN renders. A TwigStack
// plan's join runs here.
func (p *Plan) Prepare() error {
	_, _, err := p.build()
	return err
}

// build builds a NoK plan's root operator, or runs a TwigStack plan and
// returns its rows, along with a fresh stats tree.
func (p *Plan) build() (join.Operator, *Instances, error) {
	var op join.Operator
	var out *Instances
	var st *obs.OpStats
	var err error
	p.stopAfter = -1
	if limit, ok := p.Query.RowLimit(); ok && limit <= 0 {
		p.stopAfter = 0
		p.note("limit %d on $%s: no row can pass, nothing is scanned", limit, p.Query.Pos)
	}
	switch p.Strategy {
	case Twig:
		out, st, err = p.runTwig()
	default:
		op, st, err = p.buildNoKPlan()
	}
	// Install the stats tree even when the build aborts (a governed
	// violation mid-TwigStack): the abort error carries it as the
	// partial EXPLAIN ANALYZE.
	if st != nil {
		p.stats = st
	}
	if err != nil {
		return nil, nil, err
	}
	if p.opts.Analyze {
		st.EnableTiming()
	}
	return op, out, nil
}

// StatsTree returns the root of the per-operator statistics tree built
// by the most recent Prepare or Execute (nil before the first). Each
// node pairs the cost model's estimates with the counters the operators
// accumulate while running.
func (p *Plan) StatsTree() *obs.OpStats { return p.stats }

// ExplainTree renders the annotated operator tree: the chosen strategy,
// per-operator cost estimates, and — with analyze — the actual counters
// and wall time recorded during execution.
func (p *Plan) ExplainTree(analyze bool) string {
	var sb strings.Builder
	sb.WriteString("plan strategy: " + p.Strategy.String() + "\n")
	sb.WriteString(p.stats.Render(analyze))
	return sb.String()
}
