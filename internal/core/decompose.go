package core

import (
	"fmt"
	"strings"
)

// NoK is one next-of-kin pattern tree produced by decomposition: a
// maximal subgraph of the BlossomTree connected by local-axis tree edges
// (child and following-sibling) only. NoK pattern trees are the unit of
// navigational matching (Algorithm 2).
type NoK struct {
	Index   int
	Root    *Vertex
	Members map[*Vertex]bool
}

// Contains reports whether a vertex belongs to this NoK.
func (n *NoK) Contains(v *Vertex) bool { return n.Members[v] }

// LocalChildren returns v's children that stay inside this NoK, in
// construction order.
func (n *NoK) LocalChildren(v *Vertex) []*Vertex {
	var out []*Vertex
	for _, c := range v.Children {
		if n.Members[c] {
			out = append(out, c)
		}
	}
	return out
}

// ReturningVertices returns the NoK's returning vertices in depth-first
// order.
func (n *NoK) ReturningVertices() []*Vertex {
	var out []*Vertex
	var walk func(v *Vertex)
	walk = func(v *Vertex) {
		if v.Returning {
			out = append(out, v)
		}
		for _, c := range n.LocalChildren(v) {
			walk(c)
		}
	}
	walk(n.Root)
	return out
}

// Size returns the number of vertices in the NoK.
func (n *NoK) Size() int { return len(n.Members) }

// String renders the NoK as an outline.
func (n *NoK) String() string {
	var sb strings.Builder
	var walk func(v *Vertex, depth int)
	walk = func(v *Vertex, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if depth > 0 {
			sb.WriteString(v.ParentRel.String() + "(" + v.ParentMode.String() + ") ")
		}
		sb.WriteString(v.Label())
		sb.WriteByte('\n')
		for _, c := range n.LocalChildren(v) {
			walk(c, depth+1)
		}
	}
	walk(n.Root, 0)
	return sb.String()
}

// Link is a cut tree edge: the structural join connecting two NoK
// pattern trees. Parent is the vertex on the outer side (a returning
// vertex, or a document-root vertex for links that degenerate to
// whole-document scans); Child is the NoK rooted at the cut edge's
// target. The relationship is always RelDescendant — the only global
// axis in the fragment — with the cut edge's original mode.
type Link struct {
	Parent *Vertex
	Child  *NoK
	Mode   Mode
}

// IsScan reports whether the link's outer side is a document root, in
// which case no join is needed: the inner NoK simply scans the whole
// document (the situation of the paper's Figure 5, where doc()//book
// anchors NoK₁ and NoK₂ directly).
func (l Link) IsScan() bool { return l.Parent.IsDocRoot() }

// Decomposition is the result of Algorithm 1: the NoK pattern trees, the
// links (cut //-edges) between them, and the crossing edges, which
// together form the join graph the plan layer orders.
type Decomposition struct {
	Tree  *BlossomTree
	NoKs  []*NoK
	Links []Link

	byVertex map[*Vertex]*NoK
}

// NoKOf returns the NoK containing the given vertex.
func (d *Decomposition) NoKOf(v *Vertex) (*NoK, bool) {
	n, ok := d.byVertex[v]
	return n, ok
}

// Unread reports whether nothing reads a NoK's matches beyond whether
// they exist: no link leaves it, and every returning vertex in it is
// Implicit, so no variable, projection or crossing reaches into it. A
// grouping, mandatory link to such a NoK only decides which outer items
// qualify — the plan runs it as a semi-join.
func (d *Decomposition) Unread(n *NoK) bool {
	for _, l := range d.Links {
		if n.Contains(l.Parent) {
			return false
		}
	}
	for _, v := range n.ReturningVertices() {
		if !v.Implicit {
			return false
		}
	}
	return true
}

// Decompose implements Algorithm 1: depth-first edge-cutting of the
// (finalized) BlossomTree into interconnected NoK pattern trees. The set
// S of pending NoK roots is initialized with the pattern-tree roots;
// every edge labeled with a local axis extends the current NoK, every
// edge labeled with the global axis // is cut, its target joining S.
func Decompose(bt *BlossomTree) (*Decomposition, error) {
	if bt.returning == nil {
		bt.Finalize()
	}
	d := &Decomposition{Tree: bt, byVertex: make(map[*Vertex]*NoK)}
	type pending struct {
		root   *Vertex
		parent *Vertex // outer endpoint of the cut edge; nil for pattern roots
		mode   Mode
	}
	// S is the worklist of NoK roots (Algorithm 1's S).
	var S []pending
	for _, r := range bt.Roots {
		S = append(S, pending{root: r})
	}
	for len(S) > 0 {
		p := S[0]
		S = S[1:]
		nok := &NoK{Index: len(d.NoKs), Root: p.root, Members: map[*Vertex]bool{p.root: true}}
		d.NoKs = append(d.NoKs, nok)
		d.byVertex[p.root] = nok
		// T is the DFS worklist within the current NoK (Algorithm 1's T).
		T := []*Vertex{p.root}
		for len(T) > 0 {
			u := T[len(T)-1]
			T = T[:len(T)-1]
			for _, v := range u.Children {
				if v.ParentRel.Local() {
					nok.Members[v] = true
					d.byVertex[v] = nok
					T = append(T, v)
				} else {
					S = append(S, pending{root: v, parent: u, mode: v.ParentMode})
				}
			}
		}
		if p.parent != nil {
			d.Links = append(d.Links, Link{Parent: p.parent, Child: nok, Mode: p.mode})
		}
	}
	// Sanity: every vertex must land in exactly one NoK.
	for _, v := range bt.Vertices {
		if _, ok := d.byVertex[v]; !ok {
			return nil, fmt.Errorf("core: decompose: vertex %s unreachable from any root", v.Label())
		}
	}
	return d, nil
}

// String renders the decomposition for diagnostics.
func (d *Decomposition) String() string {
	var sb strings.Builder
	for _, n := range d.NoKs {
		fmt.Fprintf(&sb, "NoK%d:\n%s", n.Index, indent(n.String(), "  "))
	}
	for _, l := range d.Links {
		kind := "join"
		if l.IsScan() {
			kind = "scan"
		}
		fmt.Fprintf(&sb, "link (%s): %s //(%s) NoK%d\n", kind, l.Parent.Label(), l.Mode, l.Child.Index)
	}
	for _, c := range d.Tree.Crossings {
		sb.WriteString("cross: " + c.String() + "\n")
	}
	return sb.String()
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
