// Package join implements the physical join operators of §4.2–4.3 and
// the holistic baselines they are compared against:
//
//   - PipelinedDescJoin — the //-join: a merge join over two NoK
//     iterators, in one forward pass over the inner (§4.2, valid on
//     order-preserving inputs — Theorem 2: non-recursive documents), or
//     with Rescan re-reading the inner inside each outer instance's
//     region (the bounded nested loop of §4.3, valid on any document);
//   - NestedLoopJoin — the naive nested-loop join for predicates that
//     are not order-preserving (<<, value joins, deep-equal);
//   - CrossingFilter — the selection form of a crossing predicate whose
//     endpoints already live in one instance;
//   - TwigStack — the holistic twig join of [7] (Bruno et al.), the
//     "TS" baseline of Table 3.
package join

import (
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// Operator is a pull-based stream of NestedList instances; GetNext
// returns nil when exhausted. nok.Iterator and every join operator here
// implement it.
//
// Operators are single-consumer: one operator must not be pulled from
// two goroutines. Distinct operator trees over the same (immutable)
// document are independent and may run concurrently.
type Operator interface {
	GetNext() *nestedlist.List
}

// Instrumented wraps an operator and attributes its stream-level work —
// GetNext calls, instances emitted, and (when enabled) inclusive wall
// time — to an obs.OpStats node. Operators count their internal work
// (nodes scanned, comparisons, stack depth) into the same node
// themselves; the wrapper owns the measurements every operator shares,
// so instrumentation does not disturb the operators' control flow.
//
// Elapsed time is inclusive of children: a parent's GetNext pulls its
// inputs, as in a conventional EXPLAIN ANALYZE actual-time column.
type Instrumented struct {
	Op    Operator
	Stats *obs.OpStats
}

// Instrument wraps op so its emissions and wall time are recorded in
// stats. A nil stats returns op unchanged.
func Instrument(op Operator, stats *obs.OpStats) Operator {
	if stats == nil {
		return op
	}
	return &Instrumented{Op: op, Stats: stats}
}

// GetNext pulls from the wrapped operator, recording the call.
func (w *Instrumented) GetNext() *nestedlist.List {
	start := w.Stats.Start()
	l := w.Op.GetNext()
	w.Stats.Stop(start)
	w.Stats.AddCall()
	if l != nil {
		w.Stats.AddEmitted(1)
	}
	return l
}

// Skipper is an Operator over a document-ordered candidate list that can
// jump ahead: SkipTo(start) drops, unmatched, every pending candidate
// whose node starts before start. It never moves backwards, it charges
// the candidates it drops as scanned, and an operator that cannot skip
// at the moment treats the call as a no-op — skipping is an
// optimization, so a caller must still test what GetNext returns next.
// nok.Iterator, which reads its root's postings, is the one
// implementation.
type Skipper interface {
	Operator
	SkipTo(start int)
}

// SkipTo forwards to the wrapped operator when it can skip, so
// instrumenting a scan does not hide its Skipper side. The wrapper's own
// counters do not move: the skipped candidates are the scan's work.
func (w *Instrumented) SkipTo(start int) {
	if s, ok := w.Op.(Skipper); ok {
		s.SkipTo(start)
	}
}

// Witnesser is a stream of join nodes alone: NextWitness returns, in
// document order, the node each instance of the stream would carry in
// its join slot, or nil when exhausted, without building the instances.
// It is what a semi-join reads from an inner that nothing else reads.
// The nok.Iterator is the one implementation; slotWitnesses adapts any
// other Operator.
type Witnesser interface {
	NextWitness() *xmltree.Node
}

// NextWitness forwards to the wrapped operator, recording the call and
// the witness as GetNext records a call and an instance. The wrapped
// operator must be a Witnesser (witnesses checks).
func (w *Instrumented) NextWitness() *xmltree.Node {
	start := w.Stats.Start()
	n := w.Op.(Witnesser).NextWitness()
	w.Stats.Stop(start)
	w.Stats.AddCall()
	if n != nil {
		w.Stats.AddEmitted(1)
	}
	return n
}

// witnesses reports whether op produces witnesses of its own: it, or
// the operator it instruments, is a Witnesser. Any other operator's
// witnesses are read through a slotWitnesses adapter.
func witnesses(op Operator) bool {
	if w, ok := op.(*Instrumented); ok {
		op = w.Op
	}
	_, ok := op.(Witnesser)
	return ok
}

// slotWitnesses is the witness stream of any operator: each instance's
// first node of slot, instances without one passed over. last is the
// instance the latest witness came from.
type slotWitnesses struct {
	op   Operator
	slot int
	last *nestedlist.List
}

func (s *slotWitnesses) NextWitness() *xmltree.Node {
	for s.last = s.op.GetNext(); s.last != nil; s.last = s.op.GetNext() {
		if n := s.last.FirstNode(s.slot); n != nil {
			return n
		}
	}
	return nil
}

// Drain collects all remaining instances of an operator.
func Drain(op Operator) []*nestedlist.List {
	var out []*nestedlist.List
	for l := op.GetNext(); l != nil; l = op.GetNext() {
		out = append(out, l)
	}
	return out
}

// SliceOperator replays a materialized instance sequence.
type SliceOperator struct {
	ls  []*nestedlist.List
	pos int
}

// NewSliceOperator wraps a slice as an Operator.
func NewSliceOperator(ls []*nestedlist.List) *SliceOperator { return &SliceOperator{ls: ls} }

// GetNext returns the next instance or nil.
func (s *SliceOperator) GetNext() *nestedlist.List {
	if s.pos >= len(s.ls) {
		return nil
	}
	l := s.ls[s.pos]
	s.pos++
	return l
}
