package nok

import (
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
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

	// Exactly one anchor source is active.
	cur   *xmltree.Node // preorder cursor (sequential / subtree scans)
	stop  *xmltree.Node // subtree bound; nil for whole-document scans
	nodes []*xmltree.Node
	pos   int
	byIdx bool

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
		return &Iterator{m: m, byIdx: true, nodes: []*xmltree.Node{doc.Root}}
	}
	return &Iterator{m: m, cur: doc.DocumentElement()}
}

// NewSubtreeIterator bounds the scan to the subtree rooted at top
// (excluding top itself): the inner side of the bounded nested-loop join,
// which scans only the outer match's (p₁, p₂) region.
func NewSubtreeIterator(m *Matcher, top *xmltree.Node) *Iterator {
	return &Iterator{m: m, cur: top.FirstChild, stop: top}
}

// NewIndexIterator anchors only at the given candidate nodes, which must
// be in document order (typically a tag index inverted list).
func NewIndexIterator(m *Matcher, nodes []*xmltree.Node) *Iterator {
	return &Iterator{m: m, byIdx: true, nodes: nodes}
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
			if err := it.Gov.Emitted(fault.SiteNoKEmit); err != nil {
				it.Err = err
				return nil
			}
			return l
		}
		x := it.nextAnchor()
		if x == nil {
			return nil
		}
		it.ScannedNodes++
		it.Stats.AddScanned(1)
		if err := it.Gov.Scanned(fault.SiteNoKScan, 1); err != nil {
			it.Err = err
			return nil
		}
		if x.Kind == xmltree.ElementNode && !it.m.NoK.Root.MatchesTag(x.Tag) && !it.m.NoK.Root.IsDocRoot() {
			continue
		}
		it.Stats.AddComparisons(1)
		if l := it.m.MatchAt(x); l != nil {
			it.queue = it.m.Expand(l)
		}
	}
}

func (it *Iterator) nextAnchor() *xmltree.Node {
	if it.byIdx {
		if it.pos >= len(it.nodes) {
			return nil
		}
		n := it.nodes[it.pos]
		it.pos++
		return n
	}
	n := it.cur
	if n != nil {
		it.cur = xmltree.NextPreorder(n, it.stop)
	}
	return n
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
// node, so total I/O is one scan regardless of the number of NoKs.
func MultiScan(ms []*Matcher, doc *xmltree.Document) [][]*nestedlist.List {
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
		for i, m := range ms {
			if m.NoK.Root.IsDocRoot() || !m.NoK.Root.MatchesTag(n.Tag) {
				continue
			}
			if l := m.MatchAt(n); l != nil {
				out[i] = append(out[i], m.Expand(l)...)
			}
		}
	}
	return out
}
