// Package nestedlist implements the NestedList abstract data type of
// §3.2 and its operators (§3.3): projection, selection and the
// merge/fill step of joins. The paper parameterizes them by the Dewey
// IDs of returning nodes; here every operator takes the returning
// node's slot (core.ReturnNode.Slot) and walks its Path of child
// ordinals.
//
// A NestedList instance (List) is one match of (part of) the returning
// tree: a tree of Items mirroring the returning-tree shape, where each
// item holds a matched XML node and, per returning-tree child, the
// *group* of items matched below it (the "[]" grouping notation of
// Figure 4). Slots an instance carries no matches for — the paper's
// placeholders, produced when a single NoK of a larger BlossomTree is
// matched in isolation (Example 4) — are represented by placeholder
// items (nil Node) and a per-slot Filled bitmap; joins fill them by
// merging instances.
//
// Items are the one physical form (the array layout of Figure 6 is not
// built). Appends preserve document order, which is what makes
// projection order-preserving (Theorem 1).
package nestedlist

import (
	"strings"

	"blossomtree/internal/core"
	"blossomtree/internal/xmltree"
)

// Item is one entry of a match list: a matched XML node plus the groups
// of items matched for each returning-tree child. A nil Node marks a
// placeholder item (an unmatched spine position above another NoK's
// region).
type Item struct {
	Node   *xmltree.Node
	Groups [][]*Item // indexed by the shape node's child ordinal
}

// NewItem allocates an item for a shape node with the given child count.
// Returning-tree nodes have a few children at most, so the group
// headers of a small item are allocated with it, at their exact size:
// items are what the matcher and the joins allocate most, and one
// object instead of two halves that.
func NewItem(n *xmltree.Node, numChildren int) *Item {
	switch numChildren {
	case 0:
		return &Item{Node: n}
	case 1:
		b := &struct {
			Item
			g [1][]*Item
		}{}
		b.Node, b.Groups = n, b.g[:]
		return &b.Item
	case 2:
		b := &struct {
			Item
			g [2][]*Item
		}{}
		b.Node, b.Groups = n, b.g[:]
		return &b.Item
	case 3:
		b := &struct {
			Item
			g [3][]*Item
		}{}
		b.Node, b.Groups = n, b.g[:]
		return &b.Item
	case 4:
		b := &struct {
			Item
			g [4][]*Item
		}{}
		b.Node, b.Groups = n, b.g[:]
		return &b.Item
	}
	return &Item{Node: n, Groups: make([][]*Item, numChildren)}
}

// shallowCopy returns a new item with the same node and group headers; the
// groups themselves stay shared.
func (it *Item) shallowCopy() *Item {
	cp := NewItem(it.Node, len(it.Groups))
	copy(cp.Groups, it.Groups)
	return cp
}

// anchor returns the item's own node, or the first real node in its
// subtree (the node that determines where a placeholder spine attaches
// structurally).
func (it *Item) anchor() *xmltree.Node {
	if it.Node != nil {
		return it.Node
	}
	for _, g := range it.Groups {
		for _, c := range g {
			if n := c.anchor(); n != nil {
				return n
			}
		}
	}
	return nil
}

// filledSet is a small bitset over returning-tree slots. Returning
// trees are tiny (a handful of slots), so a single word with a rare
// overflow slice keeps instances allocation-free on the hot paths.
type filledSet struct {
	bits uint64
	big  []bool // lazily allocated for shapes with > 64 slots
}

func (f *filledSet) set(slot int, size int) {
	if slot < 64 {
		f.bits |= 1 << uint(slot)
		return
	}
	if f.big == nil {
		f.big = make([]bool, size)
	}
	f.big[slot-64] = true
}

func (f *filledSet) get(slot int) bool {
	if slot < 64 {
		return f.bits&(1<<uint(slot)) != 0
	}
	return slot-64 < len(f.big) && f.big[slot-64]
}

func (f filledSet) or(o filledSet, size int) filledSet {
	out := filledSet{bits: f.bits | o.bits}
	if f.big != nil || o.big != nil {
		out.big = make([]bool, size)
		copy(out.big, f.big)
		for i, b := range o.big {
			if b {
				out.big[i] = true
			}
		}
	}
	return out
}

// List is one NestedList instance over a returning-tree shape.
type List struct {
	Shape  *core.ReturnTree
	Root   *Item // item of the artificial super-root (Node == nil)
	filled filledSet
}

// NewInstance returns an all-placeholder instance of the shape.
func NewInstance(shape *core.ReturnTree) *List {
	return &List{
		Shape: shape,
		Root:  NewItem(nil, len(shape.Root.Children)),
	}
}

// SetFilled marks a slot as carried by this instance.
func (l *List) SetFilled(slot int) { l.filled.set(slot, len(l.Shape.Nodes)) }

// SetFilledLike marks every slot o carries as carried by l too.
func (l *List) SetFilledLike(o *List) { l.filled = l.filled.or(o.filled, len(l.Shape.Nodes)) }

// IsFilled reports whether the slot is carried by this instance.
func (l *List) IsFilled(slot int) bool { return l.filled.get(slot) }

// slotPath returns the chain of child ordinals from the super-root down
// to the slot's shape node (computed once per returning tree).
func (l *List) slotPath(slot int) []int { return l.Shape.Nodes[slot].Path }

// VisitSlot calls fn on the slot's matched nodes in document order —
// the sequence ProjectSlot returns, without building it — until fn
// returns false. It reports whether the visit ran to the end.
func (l *List) VisitSlot(slot int, fn func(*xmltree.Node) bool) bool {
	return visitSlot(l.Root, l.slotPath(slot), fn)
}

func visitSlot(it *Item, path []int, fn func(*xmltree.Node) bool) bool {
	if len(path) == 0 {
		return it.Node == nil || fn(it.Node)
	}
	if path[0] >= len(it.Groups) {
		return true
	}
	for _, c := range it.Groups[path[0]] {
		if !visitSlot(c, path[1:], fn) {
			return false
		}
	}
	return true
}

// FirstNode returns the first matched node of the slot in document
// order, or nil when the slot is empty (ProjectSlot(slot)[0] without
// the projection).
func (l *List) FirstNode(slot int) *xmltree.Node {
	return firstNode(l.Root, l.slotPath(slot))
}

func firstNode(it *Item, path []int) *xmltree.Node {
	if len(path) == 0 {
		return it.Node
	}
	if path[0] >= len(it.Groups) {
		return nil
	}
	for _, c := range it.Groups[path[0]] {
		if n := firstNode(c, path[1:]); n != nil {
			return n
		}
	}
	return nil
}

// ProjectSlot implements π: unnest along the slot's path and return
// the concatenated matched nodes. Placeholder items project to nothing.
// By Theorem 1 the result is in document order when the instance was
// built by NoK pattern matching.
func (l *List) ProjectSlot(slot int) []*xmltree.Node {
	var out []*xmltree.Node
	l.VisitSlot(slot, func(n *xmltree.Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// SelectSlot implements σ_ϕ: evaluate the predicate on each item of
// the slot (pos is the 1-based position within its group, the
// position() of path expressions), remove failing items, and check
// validity. Removal cascades: an item whose mandatory target-side group
// becomes empty is no longer a valid match itself and is removed from
// its own group, up to the instance root (an a in //a/b[c] with every b
// removed is not a match; but a sibling a keeping a b survives). When
// the cascade reaches the top the whole instance is invalid and
// SelectSlot reports false (the paper: "return empty sequence"). The
// input is never modified: the items above the slot's items are copied,
// every other group is shared.
func (l *List) SelectSlot(slot int, pred func(n *xmltree.Node, pos int) bool) (*List, bool) {
	sn := l.Shape.Nodes[slot]
	path := l.slotPath(sn.Slot)
	if len(path) == 0 {
		// Selecting on the super-root is a no-op.
		return l, true
	}

	// shapeAt[d] is the shape node entered after path[d].
	shapeAt := make([]*core.ReturnNode, len(path))
	cur := l.Shape.Root
	for d, ord := range path {
		cur = cur.Children[ord]
		shapeAt[d] = cur
	}

	// filter returns the filtered copy of it, or nil when the item
	// itself must be removed (its mandatory group emptied).
	var filter func(it *Item, depth int) *Item
	filter = func(it *Item, depth int) *Item {
		cp := NewItem(it.Node, len(it.Groups))
		ord := path[depth]
		for gi, g := range it.Groups {
			if gi != ord {
				cp.Groups[gi] = g
				continue
			}
			kept := make([]*Item, 0, len(g))
			for pos, c := range g {
				if depth == len(path)-1 {
					// Target slot: apply the predicate; placeholder items
					// pass through.
					if c.Node != nil && !pred(c.Node, pos+1) {
						continue
					}
					kept = append(kept, c)
				} else if fc := filter(c, depth+1); fc != nil {
					kept = append(kept, fc)
				}
			}
			cp.Groups[gi] = kept
			if len(kept) == 0 && len(g) > 0 && mandatorySlot(l.Shape, shapeAt[depth]) {
				return nil
			}
		}
		return cp
	}
	root := filter(l.Root, 0)
	if root == nil {
		return nil, false
	}
	out := &List{Shape: l.Shape, Root: root, filled: l.filled}
	return out, true
}

// mandatorySlot reports whether the shape node's vertex hangs on a
// mandatory edge (its loss invalidates the instance).
func mandatorySlot(shape *core.ReturnTree, n *core.ReturnNode) bool {
	if n.Vertex == nil || n.Vertex.Parent == nil {
		return true
	}
	return n.Vertex.ParentMode == core.Mandatory
}

// String renders the instance in the paper's notation, e.g.
// (a,[(b,()),(b,[(d),(d)]),(b,(d))],[(c),(c)]). Placeholder items render
// as (). Node labels are tag names.
func (l *List) String() string {
	var sb strings.Builder
	writeItem(&sb, l.Root)
	return sb.String()
}

func writeItem(sb *strings.Builder, it *Item) {
	if it.Node == nil && len(it.Groups) == 0 {
		sb.WriteString("()")
		return
	}
	sb.WriteByte('(')
	first := true
	if it.Node != nil {
		sb.WriteString(it.Node.Tag)
		first = false
	}
	for _, g := range it.Groups {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		writeGroup(sb, g)
	}
	sb.WriteByte(')')
}

func writeGroup(sb *strings.Builder, g []*Item) {
	switch len(g) {
	case 0:
		sb.WriteString("()")
	case 1:
		writeItem(sb, g[0])
	default:
		sb.WriteByte('[')
		for i, it := range g {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeItem(sb, it)
		}
		sb.WriteByte(']')
	}
}
