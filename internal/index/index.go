// Package index implements the tag-name indexes the join-based operators
// depend on: per-tag inverted lists of element nodes in document order,
// plus stream cursors over them. In the paper's terms these are the input
// streams of TwigStack and the posting lists of index-driven NoK scans,
// and the source of tag-frequency selectivity estimates for the optimizer.
package index

import (
	"sort"

	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// TagIndex maps each element tag to its occurrences in document order.
type TagIndex struct {
	doc      *xmltree.Document
	lists    map[string][]*xmltree.Node
	elements []*xmltree.Node // all elements in document order
}

// Build scans the document once and constructs the index.
func Build(doc *xmltree.Document) *TagIndex {
	ix := &TagIndex{
		doc:   doc,
		lists: make(map[string][]*xmltree.Node),
	}
	xmltree.Elements(doc.Root, func(n *xmltree.Node) {
		ix.lists[n.Tag] = append(ix.lists[n.Tag], n)
		ix.elements = append(ix.elements, n)
	})
	return ix
}

// Document returns the indexed document.
func (ix *TagIndex) Document() *xmltree.Document { return ix.doc }

// Nodes returns the document-ordered list of elements with the given tag.
// The wildcard "*" (or "") returns all elements. The returned slice is
// shared; callers must not modify it.
func (ix *TagIndex) Nodes(tag string) []*xmltree.Node {
	if tag == "*" || tag == "" {
		return ix.elements
	}
	return ix.lists[tag]
}

// Count returns the number of elements with the given tag.
func (ix *TagIndex) Count(tag string) int { return len(ix.Nodes(tag)) }

// TotalElements returns the number of elements in the document.
func (ix *TagIndex) TotalElements() int { return len(ix.elements) }

// Tags returns the sorted tag alphabet.
func (ix *TagIndex) Tags() []string {
	out := make([]string, 0, len(ix.lists))
	for t := range ix.lists {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Selectivity returns the fraction of elements carrying the given tag,
// the quantity the paper's query categories (high ≈ 1%, moderate ≈ 10%,
// low ≈ 50%) are defined over.
func (ix *TagIndex) Selectivity(tag string) float64 {
	if len(ix.elements) == 0 {
		return 0
	}
	return float64(ix.Count(tag)) / float64(len(ix.elements))
}

// Stream is a forward cursor over a document-ordered node list, the input
// abstraction of the holistic join algorithms.
type Stream struct {
	nodes []*xmltree.Node
	pos   int

	// Stats, when non-nil, counts every cursor advance (including the
	// positions a SkipTo jumps over) as scanned nodes.
	Stats *obs.OpStats
	// Gov, when non-nil, charges every cursor advance against the
	// query's node budget. Advance cannot return an error, so a
	// violation only becomes sticky in the governor; the consuming
	// operator (TwigStack) observes it at its next poll and aborts.
	Gov *gov.Governor
}

// NewStream returns a cursor over nodes, which must be in document order.
func NewStream(nodes []*xmltree.Node) *Stream { return &Stream{nodes: nodes} }

// Stream returns a fresh cursor over the tag's inverted list.
func (ix *TagIndex) Stream(tag string) *Stream { return NewStream(ix.Nodes(tag)) }

// EOF reports whether the stream is exhausted.
func (s *Stream) EOF() bool { return s.pos >= len(s.nodes) }

// Head returns the current node without advancing, or nil at EOF.
func (s *Stream) Head() *xmltree.Node {
	if s.EOF() {
		return nil
	}
	return s.nodes[s.pos]
}

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

// Reset rewinds the stream to its beginning.
func (s *Stream) Reset() { s.pos = 0 }

// SkipTo advances the stream until Head().Start >= start or EOF, using
// binary search. It never moves backwards.
func (s *Stream) SkipTo(start int) {
	if s.EOF() || s.nodes[s.pos].Start >= start {
		return
	}
	lo, hi := s.pos+1, len(s.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.nodes[mid].Start < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.Stats.AddScanned(int64(lo - s.pos))
	_ = s.Gov.Scanned(fault.SiteIndexStream, int64(lo-s.pos))
	s.pos = lo
}
