package plan

import (
	"fmt"
	"sort"
	"strings"

	"blossomtree/internal/core"
)

// This file implements the cost model the paper's conclusion defers to
// future work ("To choose an optimal plan automatically, the optimizer
// needs a cost model or similar mechanism"). The model estimates, from
// document statistics and tag-index cardinalities, the node-visit cost
// of evaluating the decomposed query under each join strategy, and Auto
// planning picks the cheapest sound one.
//
// The unit of cost is "nodes touched": the paper's experiments are
// I/O-bound and every compared operator's running time is proportional
// to the nodes it scans (NoK scans read their root's postings, bounded
// inner scans are priced by the outer match's region, TwigStack reads
// its streams).

// CostEstimate is one strategy's estimated cost.
type CostEstimate struct {
	Strategy Strategy
	Cost     float64
	Sound    bool   // false when the strategy's preconditions fail
	Detail   string // one-line justification
}

// cardinality estimates how many elements match a vertex — the items a
// join consumes — preferring, in order, feedback hints (a cached
// template's observed output counts, injected by its replan), exact
// index counts, and statistics. Hints are keyed by Vertex.Label() so a
// hint targets the constrained vertex ("part[bolt]") rather than every
// vertex sharing its tag.
func (p *Plan) cardinality(v *core.Vertex) float64 {
	if len(p.opts.CardHints) == 0 {
		return p.staticCardinality(v)
	}
	if h, ok := p.opts.CardHints[v.Label()]; ok && !v.IsDocRoot() {
		return h
	}
	return p.staticCardinality(v)
}

// staticCardinality is the synopsis-only estimate, ignoring feedback
// hints. Scans and TwigStack's streams are priced with it: they read
// every posting of their tag, however few of them match. So is
// avgRegion: a region size is a document property, and pricing it with
// a hinted (workload) cardinality would inflate regions exactly when
// hints shrink — cancelling the hint out of every nested-loop cost.
func (p *Plan) staticCardinality(v *core.Vertex) float64 {
	return float64(p.opts.Index.Count(v.Test))
}

// docNodes is the document's node count, the measure of a region.
func (p *Plan) docNodes() float64 {
	if n := p.opts.Stats.Nodes; n > 0 {
		return float64(n)
	}
	return float64(p.opts.Index.TotalElements())
}

// avgRegion estimates the average subtree size of a vertex's matches: a
// match at depth d of a tree with N nodes and max depth D covers about
// N^((D-d)/D)… which is more precision than the statistics support, so
// the model uses the uniform share N / max(card, depth) with a floor of
// the average root-to-leaf path length.
func (p *Plan) avgRegion(v *core.Vertex) float64 {
	card := p.staticCardinality(v)
	n := p.docNodes()
	if card <= 0 {
		return 0
	}
	region := n / card
	if min := p.opts.Stats.AvgDepth; region < min {
		region = min
	}
	return region
}

// EstimateCosts scores every join strategy for this plan's decomposition
// and returns the estimates sorted cheapest-first (unsound strategies
// last).
func (p *Plan) EstimateCosts() []CostEstimate {
	d := p.Decomp

	// Base scans feed every NoK-based strategy.
	var base float64
	for _, n := range d.NoKs {
		if !trivialNoK(n) {
			base += p.staticCardinality(n.Root)
		}
	}
	crossCost := p.crossingCost()

	var out []CostEstimate

	// Pipelined merge joins: each link consumes both streams once.
	pl := CostEstimate{Strategy: Pipelined, Sound: p.pipelinedSound()}
	pl.Cost = base + crossCost
	for _, l := range d.Links {
		if !l.IsScan() {
			pl.Cost += p.cardinality(l.Parent) + p.cardinality(l.Child.Root)
		}
	}
	if !pl.Sound {
		pl.Detail = "unsound: recursive input or a wildcard //-join outer breaks order preservation (Theorem 2)"
	} else {
		pl.Detail = fmt.Sprintf("scans %.0f + merge %.0f", base, pl.Cost-base)
	}
	out = append(out, pl)

	// Bounded nested loops: per outer match, a scan of its region.
	nl := CostEstimate{Strategy: BoundedNL, Sound: true}
	nl.Cost = crossCost
	for _, n := range d.NoKs {
		if !trivialNoK(n) {
			if isOuterOnly(d, n) {
				nl.Cost += p.staticCardinality(n.Root)
			}
		}
	}
	for _, l := range d.Links {
		if !l.IsScan() {
			nl.Cost += p.cardinality(l.Parent) * p.avgRegion(l.Parent)
		} else {
			nl.Cost += p.staticCardinality(l.Child.Root)
		}
	}
	nl.Detail = fmt.Sprintf("outer scans + %.0f bounded inner visits", nl.Cost)
	out = append(out, nl)

	// TwigStack: one pass over every vertex's stream (when compatible).
	ts := CostEstimate{Strategy: Twig, Sound: p.twigErr == nil}
	if ts.Sound {
		for _, v := range p.Query.Tree.Vertices {
			if !v.IsDocRoot() {
				ts.Cost += p.staticCardinality(v)
			}
		}
		ts.Detail = fmt.Sprintf("streams total %.0f", ts.Cost)
	} else {
		ts.Detail = "unsound: " + p.twigErr.Error()
	}
	out = append(out, ts)

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Sound != out[j].Sound {
			return out[i].Sound
		}
		return out[i].Cost < out[j].Cost
	})
	return out
}

// crossingCost prices the crossing joins, which every NoK-based strategy
// runs alike, from their endpoints' cardinalities. Crossings between the
// same two NoKs are joined together: when one of them is hashable, a
// hash join reads both sides once, |L|+|R|, and tests the others on its
// candidate pairs only; otherwise a nested loop tests each crossing on
// every pair, |L|·|R|.
func (p *Plan) crossingCost() float64 {
	between := func(c *core.Crossing) [2]*core.NoK {
		a, b := p.noKOfVertex(c.From), p.noKOfVertex(c.To)
		if b.Index < a.Index {
			a, b = b, a
		}
		return [2]*core.NoK{a, b}
	}
	hashed := make(map[[2]*core.NoK]bool)
	var cost float64
	for _, c := range p.Query.Tree.Crossings {
		if k := between(c); c.Hashable() && k[0] != k[1] && !hashed[k] {
			hashed[k] = true
			cost += p.cardinality(c.From) + p.cardinality(c.To)
		}
	}
	for _, c := range p.Query.Tree.Crossings {
		if !hashed[between(c)] {
			cost += p.cardinality(c.From) * p.cardinality(c.To)
		}
	}
	return cost
}

// isOuterOnly reports whether the NoK is never the child of a non-scan
// link (i.e. it is scanned directly rather than re-matched per outer).
func isOuterOnly(d *core.Decomposition, n *core.NoK) bool {
	for _, l := range d.Links {
		if l.Child == n && !l.IsScan() {
			return false
		}
	}
	return true
}

// chooseStrategy is Auto: the cheapest sound strategy of the model.
// The losers are ExplainCosts' table, so only the winner gets a note.
func (p *Plan) chooseStrategy() Strategy {
	for _, e := range p.EstimateCosts() {
		if e.Sound {
			p.note("cost model: %s wins (%s)", e.Strategy, e.Detail)
			return e.Strategy
		}
	}
	return BoundedNL // always sound
}

// ExplainCosts renders the cost table, cheapest first.
func (p *Plan) ExplainCosts() string {
	var sb strings.Builder
	sb.WriteString("cost estimates (nodes touched):\n")
	for _, e := range p.EstimateCosts() {
		mark := " "
		if !e.Sound {
			mark = "✗"
		}
		fmt.Fprintf(&sb, "  %s %-3s %12.0f  %s\n", mark, e.Strategy, e.Cost, e.Detail)
	}
	return sb.String()
}
