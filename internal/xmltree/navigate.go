package xmltree

// NextPreorder returns the node that follows n in document order
// (preorder), or nil when n is the last node. The optional stop node
// bounds the walk: the traversal never escapes the subtree rooted at
// stop. Pass nil to walk to the end of the document.
func NextPreorder(n, stop *Node) *Node {
	if n == nil {
		return nil
	}
	if n.FirstChild != nil {
		return n.FirstChild
	}
	for n != nil && n != stop {
		if n.NextSibling != nil {
			return n.NextSibling
		}
		n = n.Parent
	}
	return nil
}

// Walk calls f for every node of the subtree rooted at n in document
// order, including n itself. If f returns false the walk descends no
// further into that node's subtree (but continues with its following
// nodes).
func Walk(n *Node, f func(*Node) bool) {
	if n == nil {
		return
	}
	if !f(n) {
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		Walk(c, f)
	}
}

// Elements calls f for every element of the subtree in document order.
func Elements(n *Node, f func(*Node)) {
	Walk(n, func(m *Node) bool {
		if m.Kind == ElementNode {
			f(m)
		}
		return true
	})
}

// Descendants returns all element descendants of n (excluding n) in
// document order, optionally filtered by tag ("" matches all).
func Descendants(n *Node, tag string) []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		Walk(c, func(m *Node) bool {
			if m.Kind == ElementNode && (tag == "" || m.Tag == tag) {
				out = append(out, m)
			}
			return true
		})
	}
	return out
}

// TextChildren returns the text-node children of n in document order
// (the child::text() axis).
func TextChildren(n *Node) []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.Kind == TextNode {
			out = append(out, c)
		}
	}
	return out
}

// TextDescendants returns all text-node descendants of n (excluding n)
// in document order (the descendant::text() axis).
func TextDescendants(n *Node) []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		Walk(c, func(m *Node) bool {
			if m.Kind == TextNode {
				out = append(out, m)
			}
			return true
		})
	}
	return out
}

// Children returns the element children of n with the given tag (""
// matches all element children).
func Children(n *Node, tag string) []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.Kind == ElementNode && (tag == "" || c.Tag == tag) {
			out = append(out, c)
		}
	}
	return out
}

// Ancestors returns the proper ancestors of n from parent to the document
// element (the document node itself is excluded).
func Ancestors(n *Node) []*Node {
	var out []*Node
	for p := n.Parent; p != nil && p.Kind != DocumentNode; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// Path returns the slash-separated tag path from the document element to
// n, e.g. "/bib/book/title". Useful for diagnostics and golden tests.
func Path(n *Node) string {
	if n == nil || n.Kind == DocumentNode {
		return "/"
	}
	var parts []string
	for m := n; m != nil && m.Kind == ElementNode; m = m.Parent {
		parts = append(parts, m.Tag)
	}
	out := ""
	for i := len(parts) - 1; i >= 0; i-- {
		out += "/" + parts[i]
	}
	return out
}
