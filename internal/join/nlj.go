package join

import (
	"blossomtree/internal/core"
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/obs"
)

// Predicate evaluates a join condition between two instances.
type Predicate func(m, n *nestedlist.List) (bool, error)

// CrossingPredicate adapts a BlossomTree crossing edge to a join
// predicate over the returning-tree slots of its two endpoints.
func CrossingPredicate(c *core.Crossing, fromSlot, toSlot int) Predicate {
	return func(m, n *nestedlist.List) (bool, error) {
		return c.Eval(m.ProjectSlot(fromSlot), n.ProjectSlot(toSlot)), nil
	}
}

// NestedLoopJoin is the naive nested-loop join of §4.3, required for the
// joins that are not order-preserving — <<, following, value-based joins
// and deep-equal (Example 5 shows why << cannot be pipelined). Both
// inputs are materialized; every pair is tested.
type NestedLoopJoin struct {
	Outer, Inner Operator
	Pred         Predicate
	// Gov, when non-nil, polls cancellation per pair test and fires
	// emission faults; a violation sets Err and ends the stream.
	Gov *gov.Governor

	// Stats, when non-nil, counts predicate evaluations (the pair tests
	// of the quadratic loop) for EXPLAIN ANALYZE.
	Stats *obs.OpStats

	outer  []*nestedlist.List
	inner  []*nestedlist.List
	oi, ii int
	init   bool
	Err    error
}

// GetNext returns the next joined instance or nil.
func (j *NestedLoopJoin) GetNext() *nestedlist.List {
	if j.Err != nil {
		return nil
	}
	if !j.init {
		j.outer = Drain(j.Outer)
		j.inner = Drain(j.Inner)
		j.init = true
	}
	for ; j.oi < len(j.outer); j.oi++ {
		for j.ii < len(j.inner) {
			m, n := j.outer[j.oi], j.inner[j.ii]
			j.ii++
			j.Stats.AddComparisons(1)
			if err := j.Gov.Poll(); err != nil {
				j.Err = err
				return nil
			}
			ok, err := j.Pred(m, n)
			if err != nil {
				j.Err = err
				return nil
			}
			if !ok {
				continue
			}
			merged, err := nestedlist.Merge(m, n)
			if err != nil {
				j.Err = err
				return nil
			}
			if err := j.Gov.Emitted(fault.SiteNestedLoop); err != nil {
				j.Err = err
				return nil
			}
			return merged
		}
		j.ii = 0
	}
	return nil
}

// CrossingFilter applies a crossing predicate whose two endpoints are
// already present in each input instance (a selection, used after the
// instances carrying both endpoints have been joined).
type CrossingFilter struct {
	Input            Operator
	Crossing         *core.Crossing
	FromSlot, ToSlot int

	// Stats, when non-nil, counts crossing-predicate evaluations.
	Stats *obs.OpStats
}

// GetNext returns the next passing instance or nil.
func (f *CrossingFilter) GetNext() *nestedlist.List {
	for {
		l := f.Input.GetNext()
		if l == nil {
			return nil
		}
		f.Stats.AddComparisons(1)
		if f.Crossing.Eval(l.ProjectSlot(f.FromSlot), l.ProjectSlot(f.ToSlot)) {
			return l
		}
	}
}

// PositionFilter keeps only the k-th instance of the stream whose slot
// projection is non-empty — the σ_position(ID)=k selection of §3.3,
// applied when a positional predicate lands on a cut-edge target (e.g.
// //book[2], where position counts across the whole anchor sequence).
type PositionFilter struct {
	Input Operator
	Slot  int
	Pos   int // 1-based

	seen int
	done bool
}

// GetNext returns the selected instance once, then nil.
func (f *PositionFilter) GetNext() *nestedlist.List {
	if f.done {
		return nil
	}
	for {
		l := f.Input.GetNext()
		if l == nil {
			f.done = true
			return nil
		}
		if len(l.ProjectSlot(f.Slot)) == 0 {
			continue
		}
		f.seen++
		if f.seen == f.Pos {
			f.done = true
			return l
		}
	}
}
