package nestedlist

import "fmt"

// Merge implements the fill step of the join operator (§3.3, Example 4):
// it combines two instances of the same shape into one, filling each
// side's placeholders with the other side's matches. The join predicate
// itself is evaluated by the physical join operators (internal/join) on
// the projections of the two instances before Merge is called.
//
// Merging walks both item trees in lockstep:
//
//   - a slot filled on exactly one side takes that side's group;
//   - two placeholder spines at the same position merge recursively;
//   - a placeholder spine meeting real items is resolved structurally:
//     each of its filled sub-regions attaches under the deepest real item
//     whose node contains the region's anchor node (the closest
//     ancestor-descendant rule of the returning tree).
//
// Merge never mutates its inputs.
func Merge(a, b *List) (*List, error) {
	if a.Shape != b.Shape {
		return nil, fmt.Errorf("nestedlist: merging instances of different shapes")
	}
	out := &List{Shape: a.Shape, filled: a.filled.or(b.filled, len(a.Shape.Nodes))}
	root, err := mergeItems(a.Root, b.Root)
	if err != nil {
		return nil, err
	}
	out.Root = root
	return out, nil
}

func mergeItems(x, y *Item) (*Item, error) {
	node := x.Node
	if node == nil {
		node = y.Node
	} else if y.Node != nil && y.Node != node {
		return nil, fmt.Errorf("nestedlist: conflicting nodes %v and %v at merge point", x.Node, y.Node)
	}
	n := len(x.Groups)
	if len(y.Groups) > n {
		n = len(y.Groups)
	}
	out := NewItem(node, n)
	for i := 0; i < n; i++ {
		var gx, gy []*Item
		if i < len(x.Groups) {
			gx = x.Groups[i]
		}
		if i < len(y.Groups) {
			gy = y.Groups[i]
		}
		g, err := mergeGroups(gx, gy)
		if err != nil {
			return nil, err
		}
		out.Groups[i] = g
	}
	return out, nil
}

func mergeGroups(gx, gy []*Item) ([]*Item, error) {
	switch {
	case len(gx) == 0:
		return gy, nil
	case len(gy) == 0:
		return gx, nil
	}
	xReal, yReal := groupReal(gx), groupReal(gy)
	switch {
	case !xReal && !yReal:
		// Two placeholder spines: both are single-item chains above
		// other NoKs' regions; merge pairwise (they are spines for
		// different descendant slots of the same position).
		if len(gx) == 1 && len(gy) == 1 {
			it, err := mergeItems(gx[0], gy[0])
			if err != nil {
				return nil, err
			}
			return []*Item{it}, nil
		}
		return nil, fmt.Errorf("nestedlist: cannot merge multi-item placeholder groups")
	case xReal && !yReal:
		return attachSpines(gx, gy)
	case !xReal && yReal:
		return attachSpines(gy, gx)
	default:
		return mergeRealGroups(gx, gy)
	}
}

// mergeRealGroups unions two real groups of the same slot in document
// order (the grouping step of the existential join mode, where several
// inner instances are absorbed into one outer). Items matching the same
// node merge recursively.
func mergeRealGroups(gx, gy []*Item) ([]*Item, error) {
	key := func(it *Item) int {
		if n := it.anchor(); n != nil {
			return n.Start
		}
		return int(^uint(0) >> 1) // empty items sort last
	}
	out := make([]*Item, 0, len(gx)+len(gy))
	i, j := 0, 0
	for i < len(gx) && j < len(gy) {
		x, y := gx[i], gy[j]
		switch {
		case x.Node != nil && x.Node == y.Node:
			m, err := mergeItems(x, y)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			i++
			j++
		case key(x) <= key(y):
			out = append(out, x)
			i++
		default:
			out = append(out, y)
			j++
		}
	}
	out = append(out, gx[i:]...)
	out = append(out, gy[j:]...)
	return out, nil
}

// groupReal reports whether the group carries real matched items (as
// opposed to a placeholder spine).
func groupReal(g []*Item) bool {
	for _, it := range g {
		if it.Node != nil {
			return true
		}
	}
	return false
}

// attachSpines grafts each placeholder spine's content under a real item
// that structurally contains it. The items of the real group that
// contain the spine's anchor form a nested chain (they all contain the
// same node); attachment tries them innermost-first and backtracks
// outward, because on recursive documents the innermost container need
// not have the matching child chain below it (e.g. c2/b1/c2 nesting,
// where the anchor's b1 ancestor lies above the innermost c2).
func attachSpines(real, spines []*Item) ([]*Item, error) {
	out := make([]*Item, len(real))
	copy(out, real)
	for _, sp := range spines {
		anchor := sp.anchor()
		if anchor == nil {
			// Completely empty spine: nothing to graft.
			continue
		}
		// Containers of the anchor, innermost (largest Start) first.
		var cands []int
		for i, r := range out {
			if r.Node != nil && (r.Node == anchor || r.Node.IsAncestorOf(anchor)) {
				cands = append(cands, i)
			}
		}
		for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
			cands[i], cands[j] = cands[j], cands[i]
		}
		attached := false
		var lastErr error
		for _, i := range cands {
			merged, err := mergeItems(out[i], sp)
			if err != nil {
				lastErr = err
				continue
			}
			out[i] = merged
			attached = true
			break
		}
		if !attached {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, fmt.Errorf("nestedlist: no containing item for spine anchored at %v", anchor)
		}
	}
	return out, nil
}

// MergeBalanced merges a batch of instances pairwise in a balanced
// tree, so absorbing k same-spine instances costs O(total · log k)
// instead of the O(total · k) of a sequential left fold. Callers must
// ensure attachment is unambiguous (a single containing item at every
// shared spine position), which holds when the instances share one
// placeholder spine — the existential-absorption case of the joins.
func MergeBalanced(ls []*List) (*List, error) {
	if len(ls) == 0 {
		return nil, fmt.Errorf("nestedlist: MergeBalanced of empty batch")
	}
	for len(ls) > 1 {
		next := make([]*List, 0, (len(ls)+1)/2)
		for i := 0; i < len(ls); i += 2 {
			if i+1 == len(ls) {
				next = append(next, ls[i])
				break
			}
			m, err := Merge(ls[i], ls[i+1])
			if err != nil {
				return nil, err
			}
			next = append(next, m)
		}
		ls = next
	}
	return ls[0], nil
}

// Unnest expands the for-bound slot: for an instance whose slot group
// holds k items, it returns k instances each keeping exactly one of
// them (the enumeration step that turns grouped matches into the
// per-iteration instances of for-clause semantics, cf. Example 4 where
// each book match is its own NestedList).
func Unnest(l *List, slot int) []*List {
	path := l.slotPath(slot)
	var out []*List
	var rec func(it *Item, depth int, rebuild func(*Item) *List)
	rec = func(it *Item, depth int, rebuild func(*Item) *List) {
		if depth == len(path) {
			out = append(out, rebuild(it))
			return
		}
		ord := path[depth]
		if ord >= len(it.Groups) {
			return
		}
		for _, c := range it.Groups[ord] {
			rec(c, depth+1, func(repl *Item) *List {
				cp := it.shallowCopy()
				cp.Groups[ord] = []*Item{repl}
				return rebuild(cp)
			})
		}
	}
	rec(l.Root, 0, func(root *Item) *List {
		return &List{Shape: l.Shape, Root: root, filled: l.filled}
	})
	return out
}
