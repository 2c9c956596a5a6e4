// Package nok implements the navigational NoK pattern-matching operator
// of §4.1 (Algorithm 2): matching a next-of-kin pattern tree — child and
// following-sibling axes only, mandatory ("f") and optional ("l") edges,
// multiple returning nodes — against XML subtrees, producing NestedList
// instances whose per-slot match lists are built in document order
// (Theorem 1: projection is order-preserving).
//
// The matcher runs in four access-method forms, which is what the plan
// layer trades off:
//
//   - a whole-document sequential scan (Scan / Iterator);
//   - a subtree-bounded scan (SubtreeIterator), the inner side of the
//     bounded nested-loop join of §4.3;
//   - an index-driven scan over the root tag's postings (TagIterator);
//   - merged multi-NoK scans sharing one traversal (MultiScan), the
//     "combining multiple NoK pattern matching operators into one scan"
//     optimization of §2.1.
package nok

import (
	"fmt"

	"blossomtree/internal/core"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/xmltree"
)

// Matcher matches one NoK pattern tree of a decomposed BlossomTree.
type Matcher struct {
	NoK   *core.NoK
	Shape *core.ReturnTree

	// spinePath is the chain of shape nodes strictly between the shape
	// root and the NoK's top returning vertex: the placeholder spine
	// every emitted instance carries.
	spinePath []*core.ReturnNode
	// sinkShape is the shape node instances attach under (parent of the
	// NoK's top returning node, or the shape root for doc-root NoKs).
	sinkShape *core.ReturnNode
	// forSlots are the for-bound returning slots inside this NoK, in
	// shape order, used to unnest grouped matches into per-iteration
	// instances.
	forSlots []int
	// byVertex is the shape node of each returning vertex of the NoK,
	// indexed by Vertex.ID (nil elsewhere), and filled an instance with
	// exactly their slots marked: what every successful match carries,
	// resolved once instead of per match.
	byVertex []*core.ReturnNode
	filled   *nestedlist.List
}

// NewMatcher prepares a matcher for one NoK of the decomposition.
func NewMatcher(nok *core.NoK, shape *core.ReturnTree) (*Matcher, error) {
	m := &Matcher{NoK: nok, Shape: shape}
	root := nok.Root
	if root.Returning {
		sn, ok := shape.ByVertex(root)
		if !ok {
			return nil, fmt.Errorf("nok: root %s is returning but absent from the returning tree", root.Label())
		}
		for p := sn.Parent; p != nil && p.Parent != nil; p = p.Parent {
			m.spinePath = append([]*core.ReturnNode{p}, m.spinePath...)
		}
		m.sinkShape = sn.Parent
	} else {
		m.sinkShape = shape.Root
	}
	m.filled = nestedlist.NewInstance(shape)
	for _, v := range nok.ReturningVertices() {
		sn, ok := shape.ByVertex(v)
		if !ok {
			continue
		}
		for len(m.byVertex) <= v.ID {
			m.byVertex = append(m.byVertex, nil)
		}
		m.byVertex[v.ID] = sn
		m.filled.SetFilled(sn.Slot)
		if v.ForBound && v != root {
			m.forSlots = append(m.forSlots, sn.Slot)
		}
	}
	return m, nil
}

// RootTest returns the NoK root's tag test ("*" for wildcard roots, "~"
// for document-root NoKs), which the plan layer uses to pick an access
// method.
func (m *Matcher) RootTest() string { return m.NoK.Root.Test }

// MatchAt attempts to match the NoK pattern tree anchored at x, which
// must pass the root's kind and tag test (a scan's candidate does),
// returning the NestedList instance or nil if x does not match. The
// instance fills exactly the returning slots of this NoK; shape regions
// belonging to other NoKs stay placeholders (Example 4).
func (m *Matcher) MatchAt(x *xmltree.Node) *nestedlist.List {
	l := nestedlist.NewInstance(m.Shape)
	// Build the placeholder spine down to the attachment point.
	sink := l.Root
	for _, sn := range m.spinePath {
		ph := nestedlist.NewItem(nil, len(sn.Children))
		sink.Groups[sn.ChildOrdinal()] = []*nestedlist.Item{ph}
		sink = ph
	}
	if !m.match(m.NoK.Root, x, sink, m.sinkShape) {
		return nil
	}
	l.SetFilledLike(m.filled)
	return l
}

// Matches reports whether the NoK pattern tree matches anchored at x (a
// candidate, as for MatchAt), building nothing: the existence test of a
// join that only needs to know that a witness exists, not what it
// matched.
func (m *Matcher) Matches(x *xmltree.Node) bool { return m.match(m.NoK.Root, x, nil, nil) }

// match implements the recursive core of Algorithm 2: x has already been
// chosen as the candidate for v, and passed v's kind and tag test (in
// the scan's candidate or in matchAgainst; a tag scan's postings pass it
// by construction); the function checks v's value constraints,
// recursively matches v's local children against x's children (and v's
// following-sibling pattern children against x's following siblings),
// honors mandatory/optional edge modes, and appends matched items to
// sink in document order. Partial results of failed subtrees are
// discarded, mirroring lines 21–23 of the paper's pseudo-code. A nil
// sink only tests for a match: no item is built, and a sibling chain
// stops at its first matching member.
func (m *Matcher) match(v *core.Vertex, x *xmltree.Node, sink *nestedlist.Item, sinkShape *core.ReturnNode) bool {
	if !v.MatchesConstraints(x) {
		return false
	}
	childSink := sink
	childShape := sinkShape
	var it *nestedlist.Item
	var sn *core.ReturnNode
	if v.Returning {
		if v.ID >= len(m.byVertex) || m.byVertex[v.ID] == nil {
			return false
		}
		sn = m.byVertex[v.ID]
		if sink != nil {
			it = nestedlist.NewItem(x, len(sn.Children))
			childSink, childShape = it, sn
		}
	} else if sink != nil {
		// Accumulate into a temporary so a failed sibling subtree cannot
		// leave partial matches behind.
		it = nestedlist.NewItem(nil, len(sinkShape.Children))
		childSink = it
	}

	for _, c := range m.NoK.LocalChildren(v) {
		var matched bool
		switch c.ParentRel {
		case core.RelChild:
			matched = m.matchAgainst(c, x.FirstChild, childSink, childShape)
		case core.RelFollowingSibling:
			matched = m.matchAgainst(c, x.NextSibling, childSink, childShape)
		default:
			return false // cut edges never appear inside a NoK
		}
		if !matched && c.ParentMode == core.Mandatory {
			return false
		}
	}

	switch {
	case sink == nil:
	case v.Returning:
		ord := sn.ChildOrdinal()
		sink.Groups[ord] = append(sink.Groups[ord], it)
	default:
		for i, g := range it.Groups {
			sink.Groups[i] = append(sink.Groups[i], g...)
		}
	}
	return true
}

// matchAgainst runs pattern child c over the sibling chain starting at
// first (children of the parent match for child edges, following
// siblings for following-sibling edges). Positional constraints count
// 1-based among the chain's elements that pass c's tag test.
func (m *Matcher) matchAgainst(c *core.Vertex, first *xmltree.Node, sink *nestedlist.Item, sinkShape *core.ReturnNode) bool {
	pos, hasPos := c.PositionConstraint()
	matched := false
	tagIdx := 0
	for y := first; y != nil; y = y.NextSibling {
		if y.Kind != xmltree.ElementNode || !c.MatchesTag(y.Tag) {
			continue
		}
		tagIdx++
		if hasPos && tagIdx != pos {
			continue
		}
		if m.match(c, y, sink, sinkShape) {
			if sink == nil {
				return true
			}
			matched = true
		}
	}
	return matched
}

// Expand unnests the for-bound slots of one instance into per-iteration
// instances (Example 4: one NestedList per book match). Instances with
// no for-bound slots below the root pass through unchanged.
func (m *Matcher) Expand(l *nestedlist.List) []*nestedlist.List {
	out := []*nestedlist.List{l}
	for _, slot := range m.forSlots {
		var next []*nestedlist.List
		for _, inst := range out {
			next = append(next, nestedlist.Unnest(inst, slot)...)
		}
		out = next
	}
	return out
}
