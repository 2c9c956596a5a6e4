package nok

import (
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// Iterator is the pull form of the NoK operator: each GetNext returns
// one NestedList instance, in document order of the anchor matches. It
// is the building block of the pipelined //-join (§4.2), which composes
// GetNext calls merge-join style.
type Iterator struct {
	m *Matcher

	// postings are the anchor candidates still to read: the whole
	// stream, or since the last Reseat the part of it inside a region.
	// Every one passes the root's tag test, so none is re-tested. The
	// stream is bare — the iterator charges its own Stats and Gov for
	// what it passes.
	postings index.Stream

	queue []*nestedlist.List // expanded instances pending delivery
	// Stats, when non-nil, counts anchor candidates inspected as scanned
	// and pattern-match attempts (MatchAt calls) as comparisons for
	// EXPLAIN ANALYZE.
	Stats *obs.OpStats
	// Gov, when non-nil, charges every anchor scan against the query's
	// node budget and polls cancellation/faults; a violation sets Err
	// and ends the stream.
	Gov *gov.Governor
	// Err records the governance violation that ended the stream early;
	// the plan layer surfaces it after draining.
	Err error
}

// NewIterator anchors the matcher at postings, which must be nodes
// passing the root's tag test in document order: the root test's
// stream, index.TagIndex.Stream(m.RootTest()).
func NewIterator(m *Matcher, postings index.Stream) *Iterator {
	return &Iterator{m: m, postings: postings}
}

// Reseat restarts the scan on the postings of its whole stream that
// start in (lo, hi], dropping the instances still queued: the bounded
// nested-loop join (join.PipelinedDescJoin.Rescan) re-reads its inner
// inside each outer instance's region this way.
func (it *Iterator) Reseat(lo, hi int) {
	it.postings.Reseat(lo, hi)
	it.queue = nil
}

// GetNext returns the next instance, or nil when exhausted.
func (it *Iterator) GetNext() *nestedlist.List {
	if it.Err != nil {
		return nil
	}
	for {
		if len(it.queue) > 0 {
			l := it.queue[0]
			it.queue = it.queue[1:]
			if !it.emitted() {
				return nil
			}
			return l
		}
		x := it.candidate()
		if x == nil {
			return nil
		}
		if l := it.m.MatchAt(x); l != nil {
			if len(it.m.forSlots) > 0 {
				it.queue = it.m.Expand(l)
				continue
			}
			// Nothing to unnest: the match is the one instance.
			if !it.emitted() {
				return nil
			}
			return l
		}
	}
}

// NextWitness returns the anchor of the next match, or nil when
// exhausted, building no instance: the stream a semi-join reads when it
// only needs to know where the matches are. It charges exactly what
// GetNext does — every candidate scanned, every match attempt compared,
// every witness emitted — and is meant for NoKs without for-bound slots
// below the root, where one match is one instance.
func (it *Iterator) NextWitness() *xmltree.Node {
	if it.Err != nil {
		return nil
	}
	for {
		x := it.candidate()
		if x == nil {
			return nil
		}
		if it.m.Matches(x) {
			if !it.emitted() {
				return nil
			}
			return x
		}
	}
}

// candidate returns the next anchor candidate, charging it as scanned
// and counting it as a match attempt. It returns nil when the anchors
// are exhausted or the scan was stopped.
func (it *Iterator) candidate() *xmltree.Node {
	x := it.postings.Next()
	if x == nil || !it.charge(1) {
		return nil
	}
	it.Stats.AddComparisons(1)
	return x
}

// emitted charges one delivered match to the governor and reports
// whether the scan may go on.
func (it *Iterator) emitted() bool {
	if err := it.Gov.Emitted(fault.SiteNoKEmit); err != nil {
		it.Err = err
		return false
	}
	return true
}

// charge counts n anchor candidates as scanned — visited or skipped
// alike — against the stats and the governor's node budget, and reports
// whether the scan may go on.
func (it *Iterator) charge(n int) bool {
	it.Stats.AddScanned(int64(n))
	if err := it.Gov.Scanned(fault.SiteNoKScan, int64(n)); err != nil {
		it.Err = err
		return false
	}
	return true
}

// SkipTo drops, unmatched, the pending anchor candidates that start
// before start (join.Skipper): a merge join calls it when nothing before
// start can join. It never moves backwards. The dropped candidates are
// charged as scanned, exactly like visited ones, and are also counted
// as skipped so that the scan's feedback observation — emitted plus
// skipped — stays an estimate of the vertex's cardinality rather than
// of what one join happened to need. It is a no-op while expanded
// instances of an earlier anchor are still queued.
func (it *Iterator) SkipTo(start int) {
	if len(it.queue) > 0 || it.Err != nil {
		return
	}
	before := it.postings.Len()
	it.postings.SkipTo(start)
	if skipped := before - it.postings.Len(); skipped > 0 {
		it.Stats.AddSkipped(int64(skipped))
		it.charge(skipped)
	}
}
