package core

// ReturnNode is a node of the returning tree (§4.1): the contraction of
// the BlossomTree to its returning vertices, where two nodes are
// connected iff they are in the closest ancestor-descendant relationship
// among returning vertices. The artificial super-root (Dewey "1") has a
// nil Vertex.
type ReturnNode struct {
	Vertex   *Vertex // nil for the super-root
	Dewey    Dewey
	Slot     int // dense index into ReturnTree.Nodes; 0 is the super-root
	Parent   *ReturnNode
	Children []*ReturnNode
	// Path is the chain of child ordinals from the super-root down to
	// this node (empty for the super-root): the route every NestedList
	// operator walks to reach the slot's items. Finalize computes it once
	// per returning tree; it is shared and must not be modified.
	Path []int
}

// ChildOrdinal returns this node's 0-based position among its parent's
// children.
func (n *ReturnNode) ChildOrdinal() int {
	if n.Parent == nil {
		return 0
	}
	return n.Path[len(n.Path)-1]
}

// ReturnTree is the returning tree with its slot numbering. It is the
// shape every NestedList instance of the query conforms to.
type ReturnTree struct {
	Root  *ReturnNode
	Nodes []*ReturnNode // indexed by Slot

	byVertex map[*Vertex]*ReturnNode
}

// ByVertex returns the returning-tree node of a returning vertex.
func (rt *ReturnTree) ByVertex(v *Vertex) (*ReturnNode, bool) {
	n, ok := rt.byVertex[v]
	return n, ok
}

// ByVar resolves a variable name to its returning-tree node.
func (rt *ReturnTree) ByVar(name string) (*ReturnNode, bool) {
	for _, n := range rt.Nodes {
		if n.Vertex != nil && n.Vertex.Blossom == name {
			return n, true
		}
	}
	return nil, false
}

// Finalize marks the implicit returning vertices (endpoints of cut edges
// and crossing edges, per §3.3: "we should assign a Dewey ID to each
// returning node before decomposing it into interconnected NoK pattern
// trees"), then assigns each returning node its slot, Path and Dewey
// label by depth-first traversal under the artificial super-root. It
// returns the resulting returning tree and memoizes it on the
// BlossomTree.
func (bt *BlossomTree) Finalize() *ReturnTree {
	// Join endpoints must be addressable by slot. One that nothing
	// else made returning is Implicit: no clause reads its matches.
	implicit := func(v *Vertex) {
		if !v.Returning {
			v.Returning, v.Implicit = true, true
		}
	}
	for _, v := range bt.Vertices {
		if v.Parent != nil && v.ParentRel == RelDescendant {
			implicit(v)
			if !v.Parent.IsDocRoot() {
				implicit(v.Parent)
			}
		}
	}
	for _, c := range bt.Crossings {
		c.From.Returning, c.From.Implicit = true, false
		c.To.Returning, c.To.Implicit = true, false
	}

	rt := &ReturnTree{
		byVertex: make(map[*Vertex]*ReturnNode),
	}
	rt.Root = &ReturnNode{Dewey: Dewey{1}, Slot: 0}
	rt.Nodes = []*ReturnNode{rt.Root}

	var walk func(v *Vertex, parent *ReturnNode)
	walk = func(v *Vertex, parent *ReturnNode) {
		cur := parent
		if v.Returning {
			n := &ReturnNode{
				Vertex: v,
				Parent: parent,
				Slot:   len(rt.Nodes),
				Dewey:  parent.Dewey.Child(len(parent.Children) + 1),
				Path:   append(parent.Path[:len(parent.Path):len(parent.Path)], len(parent.Children)),
			}
			parent.Children = append(parent.Children, n)
			rt.Nodes = append(rt.Nodes, n)
			rt.byVertex[v] = n
			v.Dewey = n.Dewey
			cur = n
		}
		for _, c := range v.Children {
			walk(c, cur)
		}
	}
	for _, r := range bt.Roots {
		walk(r, rt.Root)
	}
	bt.returning = rt
	return rt
}

// ReturnTree returns the memoized returning tree, finalizing on first
// use.
func (bt *BlossomTree) ReturnTree() *ReturnTree {
	if bt.returning == nil {
		return bt.Finalize()
	}
	return bt.returning
}
