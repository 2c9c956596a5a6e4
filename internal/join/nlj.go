package join

import (
	"blossomtree/internal/core"
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// Predicate evaluates a join condition between two instances.
type Predicate func(m, n *nestedlist.List) (bool, error)

// Span is a crossing edge between a join's two inputs, oriented onto
// them: its endpoints' returning-tree slots, and which input holds the
// From endpoint (the other holds To).
type Span struct {
	Crossing         *core.Crossing
	FromSlot, ToSlot int
	FromInner        bool
}

// slots returns the span's slots in the outer and the inner input, and
// the attribute each side's value comparison reads.
func (s Span) slots() (outerSlot, innerSlot int, outerAttr, innerAttr string) {
	c := s.Crossing
	if s.FromInner {
		return s.ToSlot, s.FromSlot, c.ToAttr, c.FromAttr
	}
	return s.FromSlot, s.ToSlot, c.FromAttr, c.ToAttr
}

// SpansPredicate adapts crossing edges between a join's inputs to one
// join predicate over their endpoints' returning-tree slots: the
// conjunction of the spans, tested in order until one fails. Each call
// makes a predicate of its own: it projects the endpoints into two
// buffers it reuses across pair tests, so one predicate serves one join
// of one run (the plan builds both per run) and must not be shared.
func SpansPredicate(spans []Span) Predicate {
	var from, to []*xmltree.Node
	return func(m, n *nestedlist.List) (bool, error) {
		for _, s := range spans {
			fm, tn := m, n
			if s.FromInner {
				fm, tn = n, m
			}
			from, to = fm.AppendSlot(from[:0], s.FromSlot), tn.AppendSlot(to[:0], s.ToSlot)
			if !s.Crossing.Eval(from, to) {
				return false, nil
			}
		}
		return true, nil
	}
}

// NestedLoopJoin is the naive nested-loop join of §4.3, required for the
// joins that are not order-preserving — <<, following, value comparisons
// other than = and deep-equal (Example 5 shows why << cannot be
// pipelined); an = value crossing runs as a HashJoin. Both inputs are
// materialized; every pair is tested.
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

	from, to []*xmltree.Node // the endpoints' projections, reused per instance
}

// GetNext returns the next passing instance or nil.
func (f *CrossingFilter) GetNext() *nestedlist.List {
	for {
		l := f.Input.GetNext()
		if l == nil {
			return nil
		}
		f.Stats.AddComparisons(1)
		f.from, f.to = l.AppendSlot(f.from[:0], f.FromSlot), l.AppendSlot(f.to[:0], f.ToSlot)
		if f.Crossing.Eval(f.from, f.to) {
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
