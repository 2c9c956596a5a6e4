// Package index implements the tag-name indexes the join-based operators
// depend on: per-tag inverted lists of element nodes in document order,
// each posting's region labels (start, end, level) packed beside it, plus
// stream cursors over them. In the paper's terms these are the input
// streams of TwigStack and the posting lists of index-driven NoK scans;
// a merge or a skip decides from the label columns and touches a node
// only to return it.
package index

import (
	"math"
	"sort"

	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// postings is a document-ordered node list with its nodes' region labels
// in parallel columns: start[i], end[i] and level[i] are nodes[i]'s
// Start, End and Level. Labels fit in int32: Build refuses a document
// whose labels do not.
type postings struct {
	nodes             []*xmltree.Node
	start, end, level []int32
}

// newPostings builds the columns of nodes in one allocation.
func newPostings(nodes []*xmltree.Node) postings {
	n := len(nodes)
	labels := make([]int32, 3*n)
	p := postings{nodes: nodes, start: labels[:n:n], end: labels[n : 2*n : 2*n], level: labels[2*n:]}
	for i, x := range nodes {
		p.start[i], p.end[i], p.level[i] = int32(x.Start), int32(x.End), int32(x.Level)
	}
	return p
}

// run is the subrange [lo, hi) of every column; the three-index slices
// keep an append to one run from overwriting the next.
func (p postings) run(lo, hi int) postings {
	return postings{
		nodes: p.nodes[lo:hi:hi],
		start: p.start[lo:hi:hi], end: p.end[lo:hi:hi], level: p.level[lo:hi:hi],
	}
}

// TagIndex maps each element tag to its occurrences in document order.
// The postings of all tags share one set of columns, tag-major: each
// tag's postings are a contiguous run.
type TagIndex struct {
	doc      *xmltree.Document
	ids      map[string]int // tag → its run in runs
	runs     [][2]int       // [lo, hi) of each tag's run in cols
	cols     postings
	elements []*xmltree.Node // all elements in document order, without labels
}

// Build scans the document once and constructs the index. The scan
// collects the elements, their tags' run ids and their labels; the runs
// are then laid out in exact-sized columns, one per tag in the order the
// tags first occur, and filled from what the scan collected, touching no
// node twice.
func Build(doc *xmltree.Document) *TagIndex {
	if doc.Root.End > math.MaxInt32 {
		panic("index: document too large for 32-bit region labels")
	}
	ix := &TagIndex{doc: doc, ids: make(map[string]int)}
	type scanned struct{ id, start, end, level int32 }
	// The node count bounds the element count, so neither list regrows.
	elements := make([]*xmltree.Node, 0, doc.NodeCount())
	labels := make([]scanned, 0, doc.NodeCount())
	xmltree.Elements(doc.Root, func(n *xmltree.Node) {
		id, ok := ix.ids[n.Tag]
		if !ok {
			id = len(ix.runs)
			ix.ids[n.Tag] = id
			ix.runs = append(ix.runs, [2]int{})
		}
		ix.runs[id][1]++ // the count, until the runs are laid out
		elements = append(elements, n)
		labels = append(labels, scanned{int32(id), int32(n.Start), int32(n.End), int32(n.Level)})
	})
	n := len(elements)
	// The index keeps an exact-sized copy: the spare capacity would stay
	// live with it, and an append to Nodes("*") would write into it.
	ix.elements = make([]*xmltree.Node, n)
	copy(ix.elements, elements)
	ix.cols = postings{
		nodes: make([]*xmltree.Node, n),
		start: make([]int32, n), end: make([]int32, n), level: make([]int32, n),
	}
	fill := make([]int, len(ix.runs)) // each run's next free position
	off := 0
	for id, r := range ix.runs {
		ix.runs[id] = [2]int{off, off + r[1]}
		fill[id] = off
		off += r[1]
	}
	for i, l := range labels {
		at := fill[l.id]
		fill[l.id]++
		ix.cols.nodes[at] = elements[i]
		ix.cols.start[at], ix.cols.end[at], ix.cols.level[at] = l.start, l.end, l.level
	}
	return ix
}

// Document returns the indexed document.
func (ix *TagIndex) Document() *xmltree.Document { return ix.doc }

// tagRun returns the tag's run, the zero postings for an absent tag.
func (ix *TagIndex) tagRun(tag string) postings {
	id, ok := ix.ids[tag]
	if !ok {
		return postings{}
	}
	r := ix.runs[id]
	return ix.cols.run(r[0], r[1])
}

// Nodes returns the document-ordered list of elements with the given tag.
// The wildcard "*" (or "") returns all elements. The returned slice is
// shared; callers must not modify it. Its capacity ends with it, so an
// append copies.
func (ix *TagIndex) Nodes(tag string) []*xmltree.Node {
	if tag == "*" || tag == "" {
		return ix.elements
	}
	return ix.tagRun(tag).nodes
}

// Count returns the number of elements with the given tag.
func (ix *TagIndex) Count(tag string) int { return len(ix.Nodes(tag)) }

// TotalElements returns the number of elements in the document.
func (ix *TagIndex) TotalElements() int { return len(ix.elements) }

// Tags returns the sorted tag alphabet.
func (ix *TagIndex) Tags() []string {
	out := make([]string, 0, len(ix.ids))
	for t := range ix.ids {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Stream is a forward cursor over a document-ordered posting list and its
// label columns, the input abstraction of the holistic join algorithms.
// The head accessors read the columns; only Head and Next touch a node.
type Stream struct {
	postings
	pos int

	// Stats, when non-nil, counts every cursor advance (including the
	// positions a SkipTo jumps over) as scanned nodes.
	Stats *obs.OpStats
	// Gov, when non-nil, charges every cursor advance against the
	// query's node budget. Advance cannot return an error, so a
	// violation only becomes sticky in the governor; the consuming
	// operator (TwigStack) observes it at its next poll and aborts.
	Gov *gov.Governor
}

// NewStream returns a cursor over nodes, which must be in document order,
// building their label columns.
func NewStream(nodes []*xmltree.Node) Stream { return Stream{postings: newPostings(nodes)} }

// Stream returns a fresh cursor over the tag's inverted list. A tag's
// stream reads the index's columns; the wildcard's builds its own, since
// the all-elements list carries none.
func (ix *TagIndex) Stream(tag string) Stream {
	if tag == "*" || tag == "" {
		return NewStream(ix.elements)
	}
	return Stream{postings: ix.tagRun(tag)}
}

// EOF reports whether the stream is exhausted.
func (s *Stream) EOF() bool { return s.pos >= len(s.nodes) }

// Head returns the current node without advancing, or nil at EOF.
func (s *Stream) Head() *xmltree.Node {
	if s.EOF() {
		return nil
	}
	return s.nodes[s.pos]
}

// HeadStart returns the head's Start, math.MaxInt at EOF.
func (s *Stream) HeadStart() int {
	if s.EOF() {
		return math.MaxInt
	}
	return int(s.start[s.pos])
}

// HeadEnd returns the head's End. The stream must not be at EOF.
func (s *Stream) HeadEnd() int { return int(s.end[s.pos]) }

// HeadLevel returns the head's Level. The stream must not be at EOF.
func (s *Stream) HeadLevel() int { return int(s.level[s.pos]) }

// Advance moves past the current node.
func (s *Stream) Advance() {
	if s.pos < len(s.nodes) {
		s.pos++
		s.Stats.AddScanned(1)
		_ = s.Gov.Scanned(fault.SiteIndexStream, 1)
	}
}

// Next returns the current node and advances, or nil at EOF.
func (s *Stream) Next() *xmltree.Node {
	n := s.Head()
	s.Advance()
	return n
}

// Len returns the number of nodes remaining.
func (s *Stream) Len() int { return len(s.nodes) - s.pos }

// SkipTo advances the stream until HeadStart() >= start or EOF, charging
// every position it passes. It never moves backwards. It gallops over
// the start column: it probes 1, 2, 4, … positions ahead of the cursor
// until one brackets the target, then binary-searches the bracket, so a
// short skip reads a few adjacent labels.
func (s *Stream) SkipTo(start int) {
	if s.EOF() || int(s.start[s.pos]) >= start {
		return
	}
	// Every posting in [pos, lo) starts before start; start[hi], if any,
	// does not.
	lo, hi, step := s.pos+1, s.pos+1, 1
	for hi < len(s.start) && int(s.start[hi]) < start {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(s.start))
	for lo < hi {
		mid := (lo + hi) / 2
		if int(s.start[mid]) < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.Stats.AddScanned(int64(lo - s.pos))
	_ = s.Gov.Scanned(fault.SiteIndexStream, int64(lo-s.pos))
	s.pos = lo
}
