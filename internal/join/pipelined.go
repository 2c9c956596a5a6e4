package join

import (
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// PipelinedDescJoin is the pipelined //-join of §4.2: a merge join over
// two instance streams whose slot projections are in document order
// (Theorem 1 guarantees this for NoK outputs; Theorem 2 makes the
// composition sound on non-recursive documents). Neither side is
// materialized, and the whole join costs
//
//	O(outer nodes + inner instances pulled + output)
//
// because every input is visited once:
//
//   - the outer slot is flattened once per outer instance (a
//     nestedlist.SlotView), never per inner;
//   - containment is decided by a stack of the outer nodes still open at
//     the inner's position. Inners arrive in document order, so the
//     stack only moves forward: each outer node is pushed and popped
//     once. On the non-recursive inputs the join is planned for the
//     nodes of one slot are disjoint and the stack holds at most one
//     entry — a monotone cursor; nested nodes (a wildcard outer) stack
//     up and the innermost one takes the match;
//   - an emission fills the inner in below the stack's top item by
//     position (SlotView.Graft / Absorb), not by searching the group;
//   - an inner that lies before the next outer node cannot match
//     anything, so an Inner that is a Skipper is told to skip there,
//     and no inner is pulled once the outer stream has ended;
//   - consecutive outer instances that carry the same join nodes (the
//     duplicate keys of a merge join: two for-bound matches under one
//     ancestor, each its own instance) pair with the same inners, which
//     the stream has passed by then — so the inners one outer paired
//     with are kept until an outer with different nodes arrives, and
//     re-delivered to each duplicate.
//
// OuterSlot is the returning-tree slot of the link's outer (ancestor)
// endpoint; InnerSlot is the inner NoK's root slot, which holds exactly
// one node per instance.
//
// The join runs in one of three emission modes:
//
//   - per pair (PerPair): one merged instance per (outer, inner) pair —
//     the for-bound case, where each inner match is its own iteration;
//   - grouping (the default): all inner matches inside one outer
//     instance are absorbed into a single merged instance, and only the
//     outer items with a witness below them are kept — the existential
//     case whose inner something reads (let-bound regions, predicate
//     subtrees that a later join or a crossing reaches into);
//   - semi (Semi, with PerPair false): the existential case whose inner
//     nothing reads. The join reads the inner's join nodes alone
//     (Witnesser; an operator that cannot produce them is adapted), marks
//     every open outer item containing a witness, and skips the inner
//     stream past them to the next item not yet reached: one witness per
//     item is enough, and no inner instance is built or absorbed. The
//     outer instance comes out as it came in, witnessless items pruned.
//
// Optional keeps outer instances with no inner match (the "l" link
// mode), emitting them with the inner region left empty, and keeps
// witnessless items.
type PipelinedDescJoin struct {
	Outer, Inner Operator
	OuterSlot    int
	InnerSlot    int
	PerPair      bool
	Semi         bool
	Optional     bool

	// Stats, when non-nil, accumulates the merge's comparison work for
	// EXPLAIN ANALYZE: one per inner tested plus one per outer node the
	// cursor passes.
	Stats *obs.OpStats
	// Gov, when non-nil, polls cancellation as the merge advances and
	// fires emission faults; a violation sets Err and ends the stream.
	Gov *gov.Governor

	skip    Skipper             // Inner, when it can skip; nil otherwise
	src     Witnesser           // the inner's join nodes: Inner itself in semi mode when it can, &insts otherwise
	insts   slotWitnesses       // Inner read instance by instance
	m       *nestedlist.List    // current outer instance
	view    nestedlist.SlotView // m's outer slot
	open    []int               // view entries containing the merge position, outermost first
	next    int                 // first view entry the merge position has not passed
	cur     innerMatch          // current inner
	matched bool                // current outer paired with at least one inner

	// Duplicate-key state: the inners the nodes in runOf paired with, in
	// order. While an outer instance with those same nodes re-reads them,
	// replay < len(run) and the stream's lookahead waits in ahead.
	run    []innerMatch
	runOf  []*xmltree.Node
	replay int
	parked bool
	ahead  innerMatch

	started bool
	done    bool
	// Err records a merge failure (malformed composition); the stream
	// ends when it is set.
	Err error
}

// innerMatch is one inner the merge holds: its join node, and outside
// semi mode the instance carrying it.
type innerMatch struct {
	l *nestedlist.List
	n *xmltree.Node
}

// GetNext returns the next joined instance or nil.
func (j *PipelinedDescJoin) GetNext() *nestedlist.List {
	if j.done {
		return nil
	}
	if !j.started {
		j.started = true
		j.skip, _ = j.Inner.(Skipper)
		j.insts = slotWitnesses{op: j.Inner, slot: j.InnerSlot}
		j.src = &j.insts
		if j.Semi && !j.PerPair && witnesses(j.Inner) {
			j.src = j.Inner.(Witnesser)
		}
		j.advanceOuter()
		if j.m != nil {
			j.seekInner()
		}
	}
	for {
		if err := j.Gov.Poll(); err != nil {
			j.fail(err)
			return nil
		}
		if j.m == nil {
			j.done = true
			return nil
		}
		if j.cur.n == nil || j.cur.n.Start > j.view.Hi() {
			// The outer region ends before the inner node (or the inner
			// stream has): no later inner can match this outer either.
			if out := j.finishOuter(); out != nil || j.done {
				return out
			}
			continue
		}
		top := j.container()
		if top < 0 {
			// The inner node precedes the outer region or sits in a gap.
			j.seekInner()
			continue
		}
		j.matched = true
		if !j.parked {
			j.run = append(j.run, j.cur)
			j.replay = len(j.run)
		}
		if j.PerPair {
			merged, err := j.view.Graft(top, j.cur.l)
			if err != nil {
				j.fail(err)
				return nil
			}
			j.pullInner()
			if err := j.Gov.Emitted(fault.SitePipelined); err != nil {
				j.fail(err)
				return nil
			}
			return merged
		}
		// Existential: every open item has gained a witness, and in
		// grouping mode the inner joins the outer's accumulating copy. An
		// item below a marked one on the stack was marked with it, so the
		// walk stops at the first marked item.
		if !j.Semi {
			if err := j.view.Absorb(top, j.cur.l); err != nil {
				j.fail(err)
				return nil
			}
		}
		for s := len(j.open) - 1; s >= 0 && j.view.Mark(j.open[s]); s-- {
		}
		if j.Semi && j.skip != nil {
			j.skip.SkipTo(j.witnessedTo())
		}
		j.pullInner()
	}
}

// witnessedTo returns where the inner stream may skip to once every open
// entry holds a witness: no inner before the next unpassed entry's start
// can mark another item, and when every entry has been passed, none
// before the end of the outermost open one.
func (j *PipelinedDescJoin) witnessedTo() int {
	if j.next < j.view.Len() {
		return j.view.Node(j.next).Start + 1
	}
	return j.view.Node(j.open[0]).End + 1
}

// container moves the merge position to the inner node and returns the
// innermost outer entry containing it, or -1.
func (j *PipelinedDescJoin) container() int {
	at := j.cur.n.Start
	for len(j.open) > 0 && j.view.Node(j.open[len(j.open)-1]).End < at {
		j.open = j.open[:len(j.open)-1]
	}
	passed := j.next
	for ; j.next < j.view.Len() && j.view.Node(j.next).Start < at; j.next++ {
		if j.view.Node(j.next).End >= at {
			j.open = append(j.open, j.next)
		}
	}
	j.Stats.AddComparisons(int64(1 + j.next - passed))
	if len(j.open) == 0 {
		return -1
	}
	return j.open[len(j.open)-1]
}

// seekInner loads the next inner, first skipping the inner stream to the
// next outer node when no open node could contain what lies before it.
func (j *PipelinedDescJoin) seekInner() {
	if j.skip != nil && len(j.open) == 0 && j.next < j.view.Len() {
		j.skip.SkipTo(j.view.Node(j.next).Start + 1)
	}
	j.pullInner()
}

// pullInner loads the next inner that has a join node: from the run a
// duplicate outer is re-reading, then from the stream.
func (j *PipelinedDescJoin) pullInner() {
	switch {
	case j.replay < len(j.run):
		j.cur = j.run[j.replay]
		j.replay++
	case j.parked:
		j.parked, j.cur, j.ahead = false, j.ahead, innerMatch{}
	default:
		n := j.src.NextWitness()
		j.cur = innerMatch{l: j.insts.last, n: n}
	}
}

// finishOuter ends the current outer instance and loads the next one.
// It returns the instance to emit, if any: the grouped accumulation of a
// matched outer, or in optional mode an unmatched outer with its inner
// region empty.
func (j *PipelinedDescJoin) finishOuter() *nestedlist.List {
	var out *nestedlist.List
	switch {
	case j.matched && !j.PerPair:
		if res, ok := j.view.Result(!j.Optional); ok {
			out = res
		}
	case !j.matched && j.Optional:
		out = j.m
	}
	j.advanceOuter()
	if out != nil {
		if err := j.Gov.Emitted(fault.SitePipelined); err != nil {
			j.fail(err)
			return nil
		}
	}
	return out
}

// advanceOuter loads the next outer instance and views its join slot.
// An instance whose slot is empty can never match: it is dropped, or in
// optional mode kept with a region that precedes every inner, so the
// next step passes it through. An instance with the previous one's join
// nodes starts over on the inners those paired with.
func (j *PipelinedDescJoin) advanceOuter() {
	j.matched, j.open, j.next = false, j.open[:0], 0
	for {
		if j.m = j.Outer.GetNext(); j.m == nil {
			return
		}
		j.view.Reset(j.m, j.OuterSlot)
		if j.view.Len() > 0 || j.Optional {
			break
		}
	}
	if j.sameNodesAsRun() {
		if len(j.run) > 0 {
			// The outer before this one ended on the stream's lookahead.
			j.parked, j.ahead, j.replay = true, j.cur, 0
			j.pullInner()
		}
		return
	}
	j.run, j.runOf, j.replay = j.run[:0], j.runOf[:0], 0
	for i := 0; i < j.view.Len(); i++ {
		j.runOf = append(j.runOf, j.view.Node(i))
	}
}

func (j *PipelinedDescJoin) sameNodesAsRun() bool {
	if j.view.Len() != len(j.runOf) {
		return false
	}
	for i, n := range j.runOf {
		if j.view.Node(i) != n {
			return false
		}
	}
	return true
}

func (j *PipelinedDescJoin) fail(err error) {
	j.Err = err
	j.done = true
}
