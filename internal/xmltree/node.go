// Package xmltree implements the XML document substrate used by every
// other component of the BlossomTree engine: an in-memory ordered tree
// model with first-child/next-sibling pointers, region-encoded node labels
// (start, end, level) assigned at parse time, document statistics, a
// streaming parser built on encoding/xml, and a programmatic builder used
// by the synthetic data generators.
//
// Region labels make the structural primitives of the paper O(1):
//
//	u is an ancestor of v   iff  u.Start < v.Start && v.End <= u.End
//	u << v (document order) iff  u.Start < v.Start
//
// Start doubles as the node's position in document order (preorder rank),
// which is the property Theorems 1 and 2 of the paper rely on.
package xmltree

import (
	"fmt"
	"strings"
)

// Kind discriminates the node types of the simplified XML data model.
// Comments and processing instructions are dropped at parse time; CDATA is
// folded into text.
type Kind uint8

// Node kinds.
const (
	DocumentNode Kind = iota // the artificial root above the document element
	ElementNode
	TextNode
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute of an element node.
type Attr struct {
	Name  string
	Value string
}

// Node is a single node of an XML tree. Nodes are linked in the classic
// first-child/next-sibling representation and additionally carry their
// region encoding. The zero value is not useful; nodes are created by the
// parser or by a Builder so that labels are always consistent.
type Node struct {
	Kind  Kind
	Tag   string // element tag name; empty for text and document nodes
	Text  string // character data; empty for element and document nodes
	Attrs []Attr

	Parent      *Node
	FirstChild  *Node
	LastChild   *Node
	NextSibling *Node
	PrevSibling *Node

	// Region encoding. Start is the preorder rank (document order) of the
	// node, End the greatest Start in its subtree (one more for the
	// document node), so its descendants are the nodes whose Start lies
	// in (Start, End]. Level is the depth (document node is level 0, the
	// document element level 1).
	Start int
	End   int
	Level int
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// IsAncestorOf reports whether n is a proper ancestor of v, using the
// region encoding (O(1)).
func (n *Node) IsAncestorOf(v *Node) bool {
	if n == nil || v == nil || n == v {
		return false
	}
	return n.Start < v.Start && v.Start <= n.End
}

// Before reports whether n precedes v in document order (the << operator
// of XQuery restricted to distinct nodes; for ancestor/descendant pairs
// the ancestor precedes, matching preorder).
func (n *Node) Before(v *Node) bool {
	if n == nil || v == nil {
		return false
	}
	return n.Start < v.Start
}

// String renders a short diagnostic description of the node.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	switch n.Kind {
	case DocumentNode:
		return "#document"
	case TextNode:
		t := n.Text
		if len(t) > 20 {
			t = t[:20] + "…"
		}
		return fmt.Sprintf("#text(%q)", t)
	default:
		return fmt.Sprintf("<%s>[%d,%d]@%d", n.Tag, n.Start, n.End, n.Level)
	}
}

// Document is a parsed or constructed XML document: the artificial
// document node, its single document element, and global metadata.
type Document struct {
	Root *Node // the DocumentNode; Root.FirstChild element is the document element
	Name string

	// Bytes is the serialized size in bytes (actual input size when
	// parsed, estimated when built programmatically).
	Bytes int64

	nodeCount int
}

// DocumentElement returns the top-level element of the document, or nil
// for an empty document.
func (d *Document) DocumentElement() *Node {
	if d == nil || d.Root == nil {
		return nil
	}
	for c := d.Root.FirstChild; c != nil; c = c.NextSibling {
		if c.Kind == ElementNode {
			return c
		}
	}
	return nil
}

// NodeCount returns the total number of element and text nodes.
func (d *Document) NodeCount() int { return d.nodeCount }

// StringValue computes the XPath string-value of a node: the
// concatenation of all descendant text, with surrounding whitespace
// trimmed (the engine normalizes values for comparisons, matching how the
// paper's value predicates such as [.="Smith"] are evaluated).
func StringValue(n *Node) string {
	if n == nil {
		return ""
	}
	if n.Kind == TextNode {
		return strings.TrimSpace(n.Text)
	}
	if c := n.FirstChild; c != nil && c.NextSibling == nil && c.Kind == TextNode {
		return strings.TrimSpace(c.Text) // one text child: no copy
	}
	var sb strings.Builder
	appendText(&sb, n)
	return strings.TrimSpace(sb.String())
}

func appendText(sb *strings.Builder, n *Node) {
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		switch c.Kind {
		case TextNode:
			sb.WriteString(c.Text)
		case ElementNode:
			appendText(sb, c)
		}
	}
}

// DeepEqual implements the deep-equal() semantics the paper's Example 1
// depends on: two empty sequences are deep-equal; two nodes are deep-equal
// if they have the same kind, tag, attributes, and pairwise deep-equal
// "significant" children (whitespace-only text nodes are ignored, text is
// compared after trimming).
func DeepEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case TextNode:
		return strings.TrimSpace(a.Text) == strings.TrimSpace(b.Text)
	case ElementNode:
		if a.Tag != b.Tag || len(a.Attrs) != len(b.Attrs) {
			return false
		}
		for i := range a.Attrs {
			if a.Attrs[i] != b.Attrs[i] {
				return false
			}
		}
	}
	ac, bc := significantChildren(a), significantChildren(b)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if !DeepEqual(ac[i], bc[i]) {
			return false
		}
	}
	return true
}

// DeepEqualSeq extends DeepEqual to sequences, per XQuery F&O: sequences
// are deep-equal iff they have the same length and are pairwise
// deep-equal. Two empty sequences are deep-equal.
func DeepEqualSeq(a, b []*Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func significantChildren(n *Node) []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.Kind == TextNode && strings.TrimSpace(c.Text) == "" {
			continue
		}
		out = append(out, c)
	}
	return out
}
