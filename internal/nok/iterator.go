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

	// Exactly one anchor source is active: the preorder cursor of a
	// sequential or subtree scan, or the posting stream of an
	// index-anchored one (empty for preorder scans). The stream is bare —
	// the iterator charges its own Stats and Gov for what the stream
	// passes.
	cur      *xmltree.Node // preorder cursor
	stop     *xmltree.Node // subtree bound; nil for whole-document scans
	postings index.Stream
	// byTag is set when the postings are the root tag's own run: every
	// candidate is an element with the root's tag, so none is re-tested.
	byTag bool

	queue []*nestedlist.List // expanded instances pending delivery
	// ScannedNodes counts anchor candidates inspected, the I/O proxy the
	// experiments report.
	ScannedNodes int
	// Stats, when non-nil, mirrors ScannedNodes and counts pattern-match
	// attempts (MatchAt calls) as comparisons for EXPLAIN ANALYZE.
	Stats *obs.OpStats
	// Gov, when non-nil, charges every anchor scan against the query's
	// node budget and polls cancellation/faults; a violation sets Err
	// and ends the stream.
	Gov *gov.Governor
	// Err records the governance violation that ended the stream early;
	// the plan layer surfaces it after draining.
	Err error
}

// NewIterator returns a whole-document sequential-scan iterator: every
// node in document order is tried as an anchor (the paper's "sequential
// scan of the XML tree against the blossom tree").
func NewIterator(m *Matcher, doc *xmltree.Document) *Iterator {
	if m.NoK.Root.IsDocRoot() {
		// The document node is the one anchor.
		return &Iterator{m: m, postings: index.NewStream([]*xmltree.Node{doc.Root})}
	}
	return &Iterator{m: m, cur: doc.DocumentElement()}
}

// NewSubtreeIterator bounds the scan to the subtree rooted at top
// (excluding top itself): the inner side of the bounded nested-loop join,
// which scans only the outer match's (p₁, p₂) region.
func NewSubtreeIterator(m *Matcher, top *xmltree.Node) *Iterator {
	return &Iterator{m: m, cur: top.FirstChild, stop: top}
}

// NewTagIterator anchors at the postings of the root's tag in ix, which
// need no tag test: the index scan of a NoK whose root has a name test.
func NewTagIterator(m *Matcher, ix *index.TagIndex) *Iterator {
	return &Iterator{m: m, postings: ix.Stream(m.RootTest()), byTag: true}
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

// candidate returns the next anchor candidate of the root's kind and tag
// — the only nodes worth matching (text nodes are half of a sequential
// scan) — charging every candidate passed on the way and counting the
// returned one as a match attempt. It returns nil when the anchors are
// exhausted or the scan was stopped.
func (it *Iterator) candidate() *xmltree.Node {
	root := it.m.NoK.Root
	for {
		x := it.nextAnchor()
		if x == nil || !it.charge(1) {
			return nil
		}
		switch {
		case it.byTag:
			// The root tag's own postings need no test.
		case root.IsDocRoot():
			if x.Kind != xmltree.DocumentNode {
				continue
			}
		case x.Kind != xmltree.ElementNode || !root.MatchesTag(x.Tag):
			continue
		}
		it.Stats.AddComparisons(1)
		return x
	}
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

func (it *Iterator) nextAnchor() *xmltree.Node {
	n := it.cur
	if n == nil {
		return it.postings.Next()
	}
	it.cur = xmltree.NextPreorder(n, it.stop)
	return n
}

// charge counts n anchor candidates as scanned — visited or skipped
// alike — against the stats and the governor's node budget, and reports
// whether the scan may go on.
func (it *Iterator) charge(n int) bool {
	it.ScannedNodes += n
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
// of what one join happened to need. It is a no-op for preorder scans,
// which have no sorted candidate list to search, and while expanded
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

// Drain collects all remaining instances.
func (it *Iterator) Drain() []*nestedlist.List {
	var out []*nestedlist.List
	for l := it.GetNext(); l != nil; l = it.GetNext() {
		out = append(out, l)
	}
	return out
}

// Scan runs a full sequential scan and returns all instances.
func Scan(m *Matcher, doc *xmltree.Document) []*nestedlist.List {
	return NewIterator(m, doc).Drain()
}

// MultiScan evaluates several NoK operators over the same document in a
// single shared traversal (the merged-NoK optimization of §4.2: "when a
// new XML tree node arrives, it is matched to both sets of frontier
// nodes"), returning each matcher's instance sequence. The traversal
// visits every node once; per-matcher match attempts are made at each
// node, so total I/O is one scan regardless of the number of NoKs. Like
// a sequential scan, it charges each visited element to st and to g's
// node budget at fault.SiteNoKScan, and the first violation ends it with
// that error.
func MultiScan(ms []*Matcher, doc *xmltree.Document, g *gov.Governor, st *obs.OpStats) ([][]*nestedlist.List, error) {
	out := make([][]*nestedlist.List, len(ms))
	for i, m := range ms {
		if m.NoK.Root.IsDocRoot() {
			if l := m.MatchAt(doc.Root); l != nil {
				out[i] = append(out[i], m.Expand(l)...)
			}
		}
	}
	for n := doc.DocumentElement(); n != nil; n = xmltree.NextPreorder(n, nil) {
		if n.Kind != xmltree.ElementNode {
			continue
		}
		st.AddScanned(1)
		if err := g.Scanned(fault.SiteNoKScan, 1); err != nil {
			return nil, err
		}
		for i, m := range ms {
			if m.NoK.Root.IsDocRoot() || !m.NoK.Root.MatchesTag(n.Tag) {
				continue
			}
			st.AddComparisons(1)
			if l := m.MatchAt(n); l != nil {
				out[i] = append(out[i], m.Expand(l)...)
			}
		}
	}
	return out, nil
}
