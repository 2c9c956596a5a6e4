package nestedlist

import (
	"fmt"
	"slices"

	"blossomtree/internal/xmltree"
)

// SlotView is one slot of one instance flattened once: the slot's real
// items in document order, each remembering the chain of items above it.
// It is what lets a structural join that pairs the slot's nodes with
// other instances pay for the projection once per instance and then
// fill the region below a chosen item in time independent of how many
// siblings that item has:
//
//   - Graft builds a new instance holding one inner instance below one
//     item (the per-pair emission of a for-bound join);
//   - Absorb accumulates inner instances below their items in a private
//     copy of the viewed instance, copying each touched item once, and
//     Result returns that copy (the grouping emission).
//
// A view is reusable: Reset re-targets it and keeps its buffers, so a
// join that views one instance after another stops allocating once the
// widest instance has been seen. The zero value is ready for Reset.
type SlotView struct {
	l      *List
	slot   int
	path   []int  // the slot's ReturnNode.Path
	narrow []bool // per path level: Graft keeps only the chain item of the group
	levels [][]viewEntry
	hi     int
	sorted bool // SortSlot reordered the slot's entries

	// Accumulation state of Absorb/Mark.
	root   *Item // private copy of l.Root, nil until the first Absorb
	filled filledSet
	hits   int
}

// viewEntry is one item on the way to the slot: levels[k] holds the
// items reached after path[:k+1], in document order; the last level
// holds the slot's own items, placeholders excluded.
type viewEntry struct {
	it    *Item
	up    int32 // index of the parent entry in levels[k-1]; unused at k = 0
	pos   int32 // position within the parent's path[k] group
	owned bool  // it is a private copy made by Absorb
	hit   bool  // Mark was called on it
}

// Reset points the view at slot of l.
func (v *SlotView) Reset(l *List, slot int) {
	if v.l == nil || v.l.Shape != l.Shape || v.slot != slot {
		sn := l.Shape.Nodes[slot]
		v.slot, v.path = slot, sn.Path
		v.narrow = v.narrow[:0]
		for range v.path {
			v.narrow = append(v.narrow, false)
		}
		for k := len(v.path) - 1; sn.Parent != nil; k, sn = k-1, sn.Parent {
			v.narrow[k] = sn.Vertex.Implicit
		}
		for len(v.levels) < len(v.path) {
			v.levels = append(v.levels, nil)
		}
	}
	v.l, v.root, v.filled, v.hits, v.hi, v.sorted = l, nil, l.filled, 0, -1, false
	last := len(v.path) - 1
	for k, ord := range v.path {
		lv := v.levels[k][:0]
		parents := 1
		if k > 0 {
			parents = len(v.levels[k-1])
		}
		for up := 0; up < parents; up++ {
			parent := l.Root
			if k > 0 {
				parent = v.levels[k-1][up].it
			}
			if ord >= len(parent.Groups) {
				continue
			}
			for pos, c := range parent.Groups[ord] {
				if k == last {
					if c.Node == nil {
						continue
					}
					if c.Node.End > v.hi {
						v.hi = c.Node.End
					}
				}
				lv = append(lv, viewEntry{it: c, up: int32(up), pos: int32(pos)})
			}
		}
		v.levels[k] = lv
	}
}

// Len returns the number of matched nodes in the slot.
func (v *SlotView) Len() int {
	if len(v.path) == 0 {
		return 0
	}
	return len(v.levels[len(v.path)-1])
}

// Node returns the i-th matched node of the slot in document order.
func (v *SlotView) Node(i int) *xmltree.Node { return v.levels[len(v.path)-1][i].it.Node }

// Hi returns the largest region end among the slot's nodes, -1 when the
// slot is empty.
func (v *SlotView) Hi() int { return v.hi }

// SortSlot puts the slot's items in document order, which Reset's chain
// by chain listing is not when one chain nests inside another's item (a
// recursive document: under one a, //a//c/b lists the outer c's b's
// before those of a c inside one of them). Graft, Absorb and Mark then
// address the sorted entries; Result maps them back.
func (v *SlotView) SortSlot() {
	if len(v.path) == 0 {
		return
	}
	last := v.levels[len(v.path)-1]
	if !slices.IsSortedFunc(last, byStart) {
		slices.SortFunc(last, byStart)
		v.sorted = true
	}
}

func byStart(a, b viewEntry) int { return a.it.Node.Start - b.it.Node.Start }

// payload walks inner's placeholder spine down to the viewed slot and
// returns the spine item standing in for the slot's item — the item
// whose groups carry what inner matched below the slot. Instances
// matched for one NoK below the slot have this form (Example 4); one
// that carries real items on the way down cannot be filled in by
// position and is refused.
func (v *SlotView) payload(inner *List) (*Item, error) {
	if inner.Shape != v.l.Shape {
		return nil, fmt.Errorf("nestedlist: merging instances of different shapes")
	}
	y := inner.Root
	for _, ord := range v.path {
		for gi, g := range y.Groups {
			if gi != ord && len(g) > 0 {
				return nil, fmt.Errorf("nestedlist: inner instance fills slots beside the spine to slot %d", v.slot)
			}
		}
		if ord >= len(y.Groups) || len(y.Groups[ord]) != 1 || y.Groups[ord][0].Node != nil {
			return nil, fmt.Errorf("nestedlist: inner instance has no placeholder spine to slot %d", v.slot)
		}
		y = y.Groups[ord][0]
	}
	return y, nil
}

// Graft returns a new instance: the viewed one with inner's matches
// filled in below the slot's i-th item. Everything off the chain from
// the root to that item is shared with the viewed instance. On the
// chain, a group whose vertex is core.Vertex.Implicit is narrowed to the
// chain item alone — nothing reads its other members, so an emission
// costs the chain's length rather than the group's width; any other
// group is copied with the chain item replaced.
func (v *SlotView) Graft(i int, inner *List) (*List, error) {
	y, err := v.payload(inner)
	if err != nil {
		return nil, err
	}
	k := len(v.path) - 1
	e := &v.levels[k][i]
	cur, err := mergeItems(e.it, y)
	if err != nil {
		return nil, err
	}
	for ; k >= 0; k-- {
		parent := v.l.Root
		if k > 0 {
			parent = v.levels[k-1][e.up].it
		}
		cp := parent.shallowCopy()
		if v.narrow[k] {
			cp.Groups[v.path[k]] = []*Item{cur}
		} else {
			g := append([]*Item(nil), parent.Groups[v.path[k]]...)
			g[e.pos] = cur
			cp.Groups[v.path[k]] = g
		}
		cur = cp
		if k > 0 {
			e = &v.levels[k-1][e.up]
		}
	}
	return &List{Shape: v.l.Shape, Root: cur, filled: v.l.filled.or(inner.filled, len(v.l.Shape.Nodes))}, nil
}

// Absorb fills inner's matches in below the slot's i-th item of the
// accumulating copy Result returns. Inner instances must arrive in
// document order of their matches for the accumulated groups to stay in
// document order cheaply; out-of-order arrivals are merged in place at
// the cost of one group copy each.
func (v *SlotView) Absorb(i int, inner *List) error {
	y, err := v.payload(inner)
	if err != nil {
		return err
	}
	x := v.own(len(v.path)-1, int32(i))
	for gi, gy := range y.Groups {
		if len(gy) == 0 {
			continue
		}
		if gi >= len(x.Groups) {
			return fmt.Errorf("nestedlist: inner instance fills child %d of a slot with %d children", gi, len(x.Groups))
		}
		gx := x.Groups[gi]
		switch {
		case len(gx) == 0:
			x.Groups[gi] = gy[:len(gy):len(gy)]
		case after(gx[len(gx)-1], gy[0]):
			x.Groups[gi] = append(gx, gy...)
		default:
			g, err := mergeGroups(gx, gy)
			if err != nil {
				return err
			}
			x.Groups[gi] = g
		}
	}
	v.filled = v.filled.or(inner.filled, len(v.l.Shape.Nodes))
	return nil
}

// after reports whether real item b starts after real item a, so that
// appending b's group to a's keeps document order with nothing to merge.
func after(a, b *Item) bool {
	return a.Node != nil && b.Node != nil && a.Node.Start < b.Node.Start
}

// own returns the private copy of entry i at level k, first copying the
// chain above it. An owned item's group on the path is private too, so
// its children can be swapped in place.
func (v *SlotView) own(k int, i int32) *Item {
	e := &v.levels[k][i]
	if e.owned {
		return e.it
	}
	var parent *Item
	switch {
	case k > 0:
		parent = v.own(k-1, e.up)
	case v.root == nil:
		v.root = v.privateCopy(v.l.Root, 0)
		parent = v.root
	default:
		parent = v.root
	}
	cp := v.privateCopy(e.it, k+1)
	parent.Groups[v.path[k]][e.pos] = cp
	e.it, e.owned = cp, true
	return cp
}

// privateCopy copies an item at path depth k. Above the slot (its
// children are entered through path[k]) the group on the path is copied
// with it. At the slot, every group is capped instead: Absorb appends to
// them, and a group shared with another instance must be copied by the
// first append rather than overwritten past its length.
func (v *SlotView) privateCopy(it *Item, k int) *Item {
	cp := it.shallowCopy()
	if k == len(v.path) {
		for gi, g := range cp.Groups {
			cp.Groups[gi] = g[:len(g):len(g)]
		}
	} else if ord := v.path[k]; ord < len(cp.Groups) {
		cp.Groups[ord] = append([]*Item(nil), cp.Groups[ord]...)
	}
	return cp
}

// Mark records that the slot's i-th item has a witness below it. It
// reports whether the item was unmarked before.
func (v *SlotView) Mark(i int) bool {
	e := &v.levels[len(v.path)-1][i]
	if e.hit {
		return false
	}
	e.hit = true
	v.hits++
	return true
}

// Result returns the viewed instance with everything Absorb filled in.
// With prune, slot items never Marked are removed first, cascading as
// SelectSlot does; the second result is false when that invalidates the
// instance.
func (v *SlotView) Result(prune bool) (*List, bool) {
	out := v.l
	if v.root != nil {
		out = &List{Shape: v.l.Shape, Root: v.root, filled: v.filled}
	}
	if !prune || v.hits == v.Len() {
		return out, true
	}
	// SelectSlot offers the slot's real items in the order Reset
	// flattened them, so the i-th offer is the i-th entry, unless
	// SortSlot reordered the entries by start.
	last := v.levels[len(v.path)-1]
	i := 0
	return out.SelectSlot(v.slot, func(n *xmltree.Node, _ int) bool {
		if v.sorted {
			i, _ = slices.BinarySearchFunc(last, n.Start, func(e viewEntry, start int) int { return e.it.Node.Start - start })
		}
		keep := last[i].hit
		i++
		return keep
	})
}
