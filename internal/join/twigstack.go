package join

import (
	"cmp"
	"fmt"
	"slices"

	"blossomtree/internal/core"
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// TwigStack is the holistic twig-join baseline of Table 3 ("TS"), after
// Bruno, Koudas and Srivastava [7], in the one-pass form the tree-pattern
// literature credits to TwigList and Twig²Stack: one document-order merge
// of every pattern vertex's tag-index stream leaves each vertex with a
// list of its candidate matches, each linked to the range of every child
// vertex's list it encloses. There are no path solutions and no merge.
//
//   - One stack holds every open entry, each an ancestor of the stream
//     head. A node is pushed only while its parent vertex has an open
//     entry — on a parent-child edge, one for the node's parent — and the
//     root only where it meets the document-element anchoring.
//   - Entries close in post-order. One holds when each child vertex has a
//     holding entry inside it: pushed during its lifetime on an
//     ancestor-descendant edge, linked to it on a parent-child edge.
//   - A top-down pass keeps the holding entries that sit in a full match:
//     the root's, then those inside a kept parent's range (a difference
//     array per edge) or linked to a kept parent.
//
// Restrictions (the plan layer falls back to the other operators when
// they apply): no following-sibling edges, no positional constraints, no
// optional ("l") edges — the classic algorithm is defined for mandatory
// structural twigs.
type TwigStack struct {
	ix *index.TagIndex
	// vertices lists the twig in pre-order, a vertex's index being its
	// slot: parents come before children, and a vertex's subtree is the
	// slot range [v, last[v]).
	vertices []*core.Vertex
	parent   []int   // parent slot, -1 for the root
	last     []int   // one past the last slot of the vertex's subtree
	ord      []int   // position among the parent's children
	children [][]int // child slots
	pc       []bool  // the slot hangs on a parent-child edge inside the twig
	anchored bool    // the root must match the document element

	// PushCount counts stack pushes (a proxy for holistic-join work).
	PushCount int
	// Stats, when non-nil, receives stream-element scans, the pass's
	// containment tests, and the stack's depth for EXPLAIN ANALYZE.
	Stats *obs.OpStats
	// Gov, when non-nil, charges stream advances against the query's node
	// budget (through the per-vertex index streams), polls cancellation
	// per stream element, and fires a fault per row; a violation aborts
	// Run with the typed error.
	Gov *gov.Governor
	// Keep lists the vertices whose bindings the caller needs, one row
	// column each: Run returns the distinct combinations of their
	// bindings, not every existential witness. A document-root vertex
	// (the twig's anchor) binds the document node.
	Keep []*core.Vertex
}

// NewTwigStack prepares a holistic join for the pattern tree rooted at
// root (which must not be a document-root vertex; pass its child, whose
// anchoring the join checks itself).
func NewTwigStack(root *core.Vertex, ix *index.TagIndex) (*TwigStack, error) {
	ts := &TwigStack{ix: ix}
	ts.anchored = root.Parent != nil && root.Parent.IsDocRoot() && root.ParentRel == core.RelChild
	var walk func(v *core.Vertex, parent int) error
	walk = func(v *core.Vertex, parent int) error {
		if v.ParentRel == core.RelFollowingSibling && v != root {
			return fmt.Errorf("join: TwigStack does not support following-sibling edges")
		}
		if _, has := v.PositionConstraint(); has {
			return fmt.Errorf("join: TwigStack does not support positional constraints")
		}
		if v != root && v.ParentMode == core.Optional {
			return fmt.Errorf("join: TwigStack does not support optional edges")
		}
		slot := len(ts.vertices)
		ts.vertices = append(ts.vertices, v)
		ts.parent = append(ts.parent, parent)
		ts.pc = append(ts.pc, parent >= 0 && v.ParentRel == core.RelChild)
		ts.ord = append(ts.ord, 0)
		ts.children = append(ts.children, nil)
		if parent >= 0 {
			ts.ord[slot] = len(ts.children[parent])
			ts.children[parent] = append(ts.children[parent], slot)
		}
		ts.last = append(ts.last, 0)
		for _, c := range v.Children {
			if err := walk(c, slot); err != nil {
				return err
			}
		}
		ts.last[slot] = len(ts.vertices)
		return nil
	}
	if err := walk(root, -1); err != nil {
		return nil, err
	}
	return ts, nil
}

// stream builds the vertex's input stream: its tag's inverted list
// filtered by the vertex's value constraints.
func (ts *TwigStack) stream(v *core.Vertex) []*xmltree.Node {
	nodes := ts.ix.Nodes(v.Test)
	if len(v.Constraints) == 0 {
		return nodes
	}
	var out []*xmltree.Node
	for _, n := range nodes {
		if v.MatchesNode(n) {
			out = append(out, n)
		}
	}
	return out
}

// twigList is one vertex's entries, every node the pass pushed for it,
// in document order.
type twigList struct {
	nodes []*xmltree.Node
	// match is whether the entry held when it closed, and after marking,
	// whether it sits in a full match.
	match []bool
	held  int32   // entries that held
	up    []int32 // on a parent-child edge: the parent's entry
	// span holds, per entry and child vertex, the child's list length
	// when the entry opened and when it closed: the child's entries
	// inside the entry. While the entry is open, the second value counts
	// witnesses instead (see scan).
	span []int32
	kids int
}

// rng is entry at's span over its j-th child vertex.
func (l *twigList) rng(at, j int) []int32 {
	i := 2 * (at*l.kids + j)
	return l.span[i : i+2 : i+2]
}

// Run evaluates the twig and returns one row per distinct combination of
// the Keep vertices' bindings, each row indexed like Keep, ordered
// lexicographically by the columns' document order.
func (ts *TwigStack) Run() ([][]*xmltree.Node, error) {
	if len(ts.Keep) == 0 {
		return nil, fmt.Errorf("join: TwigStack keeps no vertex")
	}
	cols := make([]int, len(ts.Keep))
	for i, v := range ts.Keep {
		cols[i] = slices.Index(ts.vertices, v)
		if cols[i] < 0 && !v.IsDocRoot() {
			return nil, fmt.Errorf("join: kept vertex %s is not in the twig", v.Label())
		}
	}
	lists, err := ts.scan()
	if err != nil {
		return nil, err
	}
	ts.mark(lists)
	return ts.rows(lists, cols)
}

// scan is the one pass: it merges the vertex streams in document order
// and builds every vertex's list. A node in several streams goes to the
// highest slot first, so a vertex's descendants take it before the
// vertex does and no entry encloses an entry of its own node.
func (ts *TwigStack) scan() ([]twigList, error) {
	n := len(ts.vertices)
	streams := make([]*index.Stream, n)
	lists := make([]twigList, n)
	top := make([]int32, n) // the vertex's deepest open entry on the stack, -1 if none
	for i, v := range ts.vertices {
		nodes := ts.stream(v)
		streams[i] = index.NewStream(nodes)
		streams[i].Stats = ts.Stats
		streams[i].Gov = ts.Gov
		// A list holds at most its stream: size it once, not by doubling.
		k := len(ts.children[i])
		lists[i] = twigList{kids: k, nodes: make([]*xmltree.Node, 0, len(nodes)),
			match: make([]bool, 0, len(nodes)), span: make([]int32, 0, 2*k*len(nodes))}
		top[i] = -1
	}
	type open struct{ slot, at, prev int32 }
	var stack []open
	var cmps int64
	depth := 0
	defer func() {
		ts.Stats.AddComparisons(cmps)
		ts.Stats.ObserveStackDepth(depth)
	}()

	push := func(slot int, h *xmltree.Node) {
		l, p := &lists[slot], ts.parent[slot]
		switch {
		case p < 0 && ts.anchored && h.Level != 1, p >= 0 && top[p] < 0:
			return
		case ts.pc[slot]:
			cmps++
			at := stack[top[p]].at
			if lists[p].nodes[at] != h.Parent {
				return
			}
			l.up = append(l.up, at)
		}
		for _, c := range ts.children[slot] {
			// Witnesses so far: the child's held entries on an
			// ancestor-descendant edge, none on a parent-child edge.
			w := lists[c].held
			if ts.pc[c] {
				w = 0
			}
			l.span = append(l.span, int32(len(lists[c].nodes)), w)
		}
		stack = append(stack, open{int32(slot), int32(len(l.nodes)), top[slot]})
		top[slot] = int32(len(stack) - 1)
		l.nodes = append(l.nodes, h)
		l.match = append(l.match, false)
		ts.PushCount++
		depth = max(depth, len(stack))
	}
	pop := func() {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		slot, l, at := int(e.slot), &lists[e.slot], int(e.at)
		top[slot] = e.prev
		holds := true
		for j, c := range ts.children[slot] {
			cmps++
			r := l.rng(at, j)
			holds = holds && (ts.pc[c] && r[1] > 0 || !ts.pc[c] && lists[c].held > r[1])
			r[1] = int32(len(lists[c].nodes))
		}
		if holds {
			l.match[at] = true
			l.held++
			if ts.pc[slot] {
				lists[ts.parent[slot]].rng(int(l.up[at]), ts.ord[slot])[1]++
			}
		}
	}

	for {
		slot, h := -1, (*xmltree.Node)(nil)
		for i := n - 1; i >= 0; i-- {
			if c := streams[i].Head(); c != nil && (h == nil || c.Start < h.Start) {
				slot, h = i, c
			}
		}
		if h == nil {
			break
		}
		if err := ts.Gov.Poll(); err != nil {
			return nil, err
		}
		for len(stack) > 0 && lists[stack[len(stack)-1].slot].nodes[stack[len(stack)-1].at].End < h.Start {
			pop()
		}
		push(slot, h)
		streams[slot].Advance()
	}
	for len(stack) > 0 {
		pop()
	}
	return lists, ts.Gov.Err()
}

// mark narrows every list to the entries in a full match, top-down: a
// parent's marks are final before its children's.
func (ts *TwigStack) mark(lists []twigList) {
	var cover []int32
	for slot := 1; slot < len(ts.vertices); slot++ {
		l, pl := &lists[slot], &lists[ts.parent[slot]]
		if ts.pc[slot] {
			for x, up := range l.up {
				l.match[x] = l.match[x] && pl.match[up]
			}
			continue
		}
		// +1 where a kept parent's range opens, -1 where it closes: a
		// positive running sum means inside one.
		cover = append(cover[:0], make([]int32, len(l.nodes)+1)...)
		for e, ok := range pl.match {
			if ok {
				r := pl.rng(e, ts.ord[slot])
				cover[r[0]]++
				cover[r[1]]--
			}
		}
		var sum int32
		for x := range l.nodes {
			sum += cover[x]
			l.match[x] = l.match[x] && sum > 0
		}
	}
}

// rows enumerates the distinct kept combinations over the marked
// entries. It starts at the kept vertices' lowest common ancestor —
// marking already proved everything above it — and walks only the
// vertices on a path down to a kept one, parent before child.
func (ts *TwigStack) rows(lists []twigList, cols []int) ([][]*xmltree.Node, error) {
	lca, kept := -1, 0
	for i, c := range cols {
		if c < 0 || slices.Contains(cols[:i], c) {
			continue
		}
		kept++
		if lca < 0 {
			lca = c
		}
		for lca > c || c >= ts.last[lca] {
			lca = ts.parent[lca]
		}
	}
	// With only the document root kept, the root's marked entries each
	// prove the one row.
	lca = max(lca, 0)
	var walk []int
	for v := lca; v < ts.last[lca]; v++ {
		if v == lca || slices.ContainsFunc(cols, func(c int) bool { return c >= v && c < ts.last[v] }) {
			walk = append(walk, v)
		}
	}

	var flat []*xmltree.Node
	chosen := make([]int32, len(ts.vertices))
	var enum func(i int) error
	enum = func(i int) error {
		if i == len(walk) {
			for _, c := range cols {
				if c < 0 {
					flat = append(flat, ts.ix.Document().Root)
				} else {
					flat = append(flat, lists[c].nodes[chosen[c]])
				}
			}
			return ts.Gov.Emitted(fault.SiteTwigStack)
		}
		slot, l := walk[i], &lists[walk[i]]
		p := ts.parent[slot]
		lo, hi := int32(0), int32(len(l.nodes))
		if i > 0 {
			r := lists[p].rng(int(chosen[p]), ts.ord[slot])
			lo, hi = r[0], r[1]
		}
		for x := lo; x < hi; x++ {
			if l.match[x] && (i == 0 || !ts.pc[slot] || l.up[x] == chosen[p]) {
				chosen[slot] = x
				if err := enum(i + 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := enum(0); err != nil {
		return nil, err
	}

	w := len(cols)
	out := make([][]*xmltree.Node, len(flat)/w)
	for i := range out {
		out[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	if kept != 1 {
		// Unless one kept vertex is enumerated alone, combinations can
		// repeat and arrive out of column order.
		slices.SortFunc(out, compareRows)
		out = slices.CompactFunc(out, func(a, b []*xmltree.Node) bool { return compareRows(a, b) == 0 })
	}
	return out, nil
}

// compareRows orders rows lexicographically by their nodes' Start.
func compareRows(a, b []*xmltree.Node) int {
	for i := range a {
		if c := cmp.Compare(a[i].Start, b[i].Start); c != 0 {
			return c
		}
	}
	return 0
}
