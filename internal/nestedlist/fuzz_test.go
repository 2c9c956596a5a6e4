package nestedlist

import (
	"slices"
	"testing"

	"blossomtree/internal/core"
	"blossomtree/internal/xmltree"
)

// byteCursor consumes fuzz input one byte at a time, yielding zeros
// once exhausted — so every input decodes to some valid build script.
type byteCursor struct {
	data []byte
	pos  int
}

func (c *byteCursor) next() byte {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

// fuzzShape decodes a returning-tree shape from the cursor: up to six
// returning vertices in a random tree off one document root, all on
// //-edges (which Finalize marks returning, giving every vertex a slot).
func fuzzShape(c *byteCursor) *core.ReturnTree {
	bt := core.NewBlossomTree()
	root := bt.AddRoot("")
	n := 1 + int(c.next())%6
	verts := make([]*core.Vertex, 0, n)
	tags := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		v := bt.NewVertex(tags[i])
		parent := root
		if len(verts) > 0 && c.next()%2 == 0 {
			parent = verts[int(c.next())%len(verts)]
		}
		bt.AddChild(parent, v, core.RelDescendant, core.Mandatory)
		verts = append(verts, v)
	}
	return bt.Finalize()
}

// fuzzPool builds a small fixed document whose elements serve as the
// instance's node pool (the checks compare nodes by identity, so any
// nodes do).
func fuzzPool() []*xmltree.Node {
	b := xmltree.NewBuilder()
	b.Start("r")
	for i := 0; i < 3; i++ {
		b.Start("x")
		b.Start("y")
		b.End()
		b.End()
	}
	b.End()
	doc := b.MustDone()
	var pool []*xmltree.Node
	xmltree.Elements(doc.Root, func(n *xmltree.Node) { pool = append(pool, n) })
	return pool
}

// fuzzInstance decodes a pointer-form instance over the shape: per
// shape node (BFS), each parent item gets a group of 0–2 items, each
// either a real node from the pool or a placeholder (nil node), and
// each slot's filled bit is drawn from the script.
func fuzzInstance(c *byteCursor, rt *core.ReturnTree, pool []*xmltree.Node) *List {
	l := NewInstance(rt)
	parentItems := map[int][]*Item{0: {l.Root}}
	queue := append([]*core.ReturnNode(nil), rt.Root.Children...)
	for len(queue) > 0 {
		sn := queue[0]
		queue = queue[1:]
		queue = append(queue, sn.Children...)
		ord := sn.ChildOrdinal()
		var items []*Item
		parentSlot := 0
		if sn.Parent != nil {
			parentSlot = sn.Parent.Slot
		}
		for _, p := range parentItems[parentSlot] {
			for k := int(c.next()) % 3; k > 0; k-- {
				var node *xmltree.Node
				if c.next()%2 == 0 {
					node = pool[int(c.next())%len(pool)]
				}
				it := NewItem(node, len(sn.Children))
				p.Groups[ord] = append(p.Groups[ord], it)
				items = append(items, it)
			}
		}
		parentItems[sn.Slot] = items
		if c.next()%2 == 0 {
			l.SetFilled(sn.Slot)
		}
	}
	return l
}

// FuzzSelectSlot checks σ on any pointer-form instance: an always-true
// predicate leaves String() and every slot's projection unchanged; for
// any predicate, every slot's projection shrinks to a subsequence of the
// input's, and the target slot's to a subsequence of the input's
// filtered projection; and the input instance is never modified
// (copy-on-write). The script's first byte picks the target slot and the
// next two a 16-bit mask the predicate indexes by node and position.
func FuzzSelectSlot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0xff, 0xff, 1, 0, 1, 0, 1})
	f.Add([]byte{2, 0x5a, 0x0f, 3, 0, 0, 1, 1, 2, 0, 1, 2, 3, 0, 1, 0, 1})
	f.Add([]byte{3, 0x00, 0x00, 5, 1, 0, 0, 1, 1, 1, 2, 2, 0, 2, 1, 0, 2, 2, 1, 0, 0, 1, 1, 2, 0})
	f.Add([]byte{5, 0x33, 0xcc, 6, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	pool := fuzzPool()
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteCursor{data: data}
		target := int(c.next())
		mask := uint16(c.next())<<8 | uint16(c.next())
		rt := fuzzShape(c)
		l := fuzzInstance(c, rt, pool)
		target %= len(rt.Nodes)

		before := snapshot(l)
		str := l.String()
		proj := make([][]*xmltree.Node, len(rt.Nodes))
		for slot := range rt.Nodes {
			proj[slot] = l.ProjectSlot(slot)
		}

		all, ok := l.SelectSlot(target, func(*xmltree.Node, int) bool { return true })
		if !ok {
			t.Fatalf("always-true σ on slot %d invalidated the instance", target)
		}
		if got := all.String(); got != str {
			t.Fatalf("always-true σ on slot %d changed structure:\n got %s\nwant %s", target, got, str)
		}
		for slot := range rt.Nodes {
			if got := all.ProjectSlot(slot); !slices.Equal(got, proj[slot]) {
				t.Fatalf("always-true σ on slot %d changed slot %d's projection", target, slot)
			}
		}

		pred := func(n *xmltree.Node, pos int) bool { return mask>>((n.Start*3+pos)%16)&1 == 1 }
		out, ok := l.SelectSlot(target, pred)
		if ok {
			for slot := range rt.Nodes {
				if !isSubsequence(out.ProjectSlot(slot), proj[slot]) {
					t.Fatalf("σ on slot %d: slot %d's projection is not a subsequence of the input's", target, slot)
				}
				if out.IsFilled(slot) != l.IsFilled(slot) {
					t.Fatalf("σ on slot %d: slot %d's filled bit changed", target, slot)
				}
			}
			var kept []*xmltree.Node
			visitGroups(l.Root, rt.Nodes[target].Path, func(g []*Item) {
				for pos, it := range g {
					if it.Node != nil && pred(it.Node, pos+1) {
						kept = append(kept, it.Node)
					}
				}
			})
			if target != 0 && !isSubsequence(out.ProjectSlot(target), kept) {
				t.Fatalf("σ on slot %d kept a node the predicate rejects", target)
			}
		}

		if got := snapshot(l); !slices.Equal(got, before) || l.String() != str {
			t.Fatalf("σ on slot %d modified its input", target)
		}
	})
}

// visitGroups calls fn on every group the path's last ordinal selects,
// in document order: the groups σ applies its predicate to.
func visitGroups(it *Item, path []int, fn func([]*Item)) {
	if len(path) == 0 || path[0] >= len(it.Groups) {
		return
	}
	if len(path) == 1 {
		fn(it.Groups[path[0]])
		return
	}
	for _, c := range it.Groups[path[0]] {
		visitGroups(c, path[1:], fn)
	}
}

// snapshot flattens an instance into its items, nodes and group headers
// in preorder, so any write into the instance shows as a difference.
func snapshot(l *List) []any {
	var out []any
	var walk func(it *Item)
	walk = func(it *Item) {
		out = append(out, it, it.Node, len(it.Groups))
		for _, g := range it.Groups {
			out = append(out, len(g), cap(g))
			for _, c := range g {
				walk(c)
			}
		}
	}
	walk(l.Root)
	return out
}

// isSubsequence reports whether sub is an order-preserving selection of
// seq (compared by node identity).
func isSubsequence(sub, seq []*xmltree.Node) bool {
	i := 0
	for _, n := range seq {
		if i < len(sub) && sub[i] == n {
			i++
		}
	}
	return i == len(sub)
}
