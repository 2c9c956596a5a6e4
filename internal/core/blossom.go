package core

import (
	"fmt"
	"slices"
	"strings"

	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

// Rel is the structural relationship annotating a tree edge of a
// BlossomTree (the r of the paper's ⟨r, m⟩ annotation). Child and
// FollowingSibling are the local axes a NoK pattern tree admits;
// Descendant is the global axis along which Algorithm 1 cuts.
type Rel int

// Tree-edge relationships. RelParent and RelAncestor are the upward
// mirror edges of RelChild and RelDescendant (the reverse-axis edge
// kinds of the tree-pattern survey literature): the edge's target vertex
// matches the parent (resp. an ancestor) of the source's match. The
// compiler rewrites RelParent edges onto existing vertices where a
// /-edge already pins the parent; the remaining upward edges are outside
// the join algebra and route the query to the navigational fallback.
const (
	RelChild Rel = iota
	RelDescendant
	RelFollowingSibling
	RelParent
	RelAncestor
)

// Local reports whether the relationship is a local axis (stays inside a
// NoK pattern tree under Algorithm 1). The upward axes mirror their
// downward counterparts: parent is local, ancestor is global.
func (r Rel) Local() bool { return r != RelDescendant && r != RelAncestor }

// Upward reports whether the edge points against the document hierarchy
// (its target matches above its source).
func (r Rel) Upward() bool { return r == RelParent || r == RelAncestor }

// String renders the relationship in XPath syntax.
func (r Rel) String() string {
	switch r {
	case RelChild:
		return "/"
	case RelDescendant:
		return "//"
	case RelFollowingSibling:
		return "/following-sibling::"
	case RelParent:
		return "/parent::"
	case RelAncestor:
		return "/ancestor::"
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Holds evaluates the structural relationship between two XML nodes
// (src is the edge's source match, tgt its target match).
func (r Rel) Holds(src, tgt *xmltree.Node) bool {
	switch r {
	case RelChild:
		return tgt.Parent == src
	case RelDescendant:
		return src.IsAncestorOf(tgt)
	case RelFollowingSibling:
		return tgt.Parent == src.Parent && src.Before(tgt)
	case RelParent:
		return src.Parent == tgt
	case RelAncestor:
		return tgt.IsAncestorOf(src)
	default:
		return false
	}
}

// Mode is the matching mode of an edge: mandatory ("f", contributed by
// for-clauses and structural predicates) or optional ("l", contributed by
// let-clauses and return-clause extensions).
type Mode byte

// Edge modes.
const (
	Mandatory Mode = 'f'
	Optional  Mode = 'l'
)

// String renders the mode letter.
func (m Mode) String() string { return string(byte(m)) }

// ConstraintKind discriminates value constraints attached to a vertex.
type ConstraintKind int

// Constraint kinds.
const (
	CValue      ConstraintKind = iota // string-value comparison: . op literal
	CAttr                             // attribute comparison: @a op literal
	CAttrExists                       // attribute existence: @a
	CPosition                         // positional predicate: [n]
)

// Constraint is a value constraint on a vertex (the optional value
// constraints of Definition 1).
type Constraint struct {
	Kind  ConstraintKind
	Attr  string      // for CAttr / CAttrExists
	Op    xpath.CmpOp // for CValue / CAttr
	Value string      // literal, for CValue / CAttr
	Pos   int         // for CPosition (1-based)
}

// Match evaluates the constraint against an XML node. pos is the node's
// 1-based position within its matched sibling group (used by CPosition).
func (c Constraint) Match(n *xmltree.Node, pos int) bool {
	switch c.Kind {
	case CValue:
		return c.Op.Eval(xmltree.StringValue(n), c.Value)
	case CAttr:
		v, ok := n.Attr(c.Attr)
		return ok && c.Op.Eval(v, c.Value)
	case CAttrExists:
		_, ok := n.Attr(c.Attr)
		return ok
	case CPosition:
		return pos == c.Pos
	default:
		return false
	}
}

// String renders the constraint in predicate syntax.
func (c Constraint) String() string {
	switch c.Kind {
	case CValue:
		return fmt.Sprintf(".%s%q", c.Op, c.Value)
	case CAttr:
		return fmt.Sprintf("@%s%s%q", c.Attr, c.Op, c.Value)
	case CAttrExists:
		return "@" + c.Attr
	case CPosition:
		return fmt.Sprintf("%d", c.Pos)
	default:
		return "?"
	}
}

// Vertex is a node of a BlossomTree (Definition 1): a tag-name test,
// optional value constraints, and an optional variable binding (blossom).
type Vertex struct {
	ID          int    // dense index into BlossomTree.Vertices
	Test        string // tag name or "*"; "~" for a document-root vertex
	Constraints []Constraint
	Blossom     string // variable bound here, "" if none
	Returning   bool
	// ForBound marks vertices bound by for-clauses (or the endpoints of
	// bare path queries): their matches enumerate separate result
	// instances instead of being grouped, per the for/let distinction of
	// §3.1.
	ForBound bool
	// Implicit marks a vertex that is returning only because Finalize
	// needed a slot for a //-join endpoint: it binds no variable, no
	// clause projects it and no crossing compares it, so an instance may
	// keep just the one match a join pairs with instead of the whole
	// group.
	Implicit bool
	Dewey    Dewey // printed label, assigned to returning vertices by Finalize

	// Tree structure. The edge from Parent to this vertex carries
	// ⟨ParentRel, ParentMode⟩. Roots have Parent == nil.
	Parent     *Vertex
	ParentRel  Rel
	ParentMode Mode
	Children   []*Vertex
}

// IsDocRoot reports whether the vertex matches the document node itself.
func (v *Vertex) IsDocRoot() bool { return v.Test == "~" }

// MatchesTag reports whether the vertex's tag test accepts tag.
func (v *Vertex) MatchesTag(tag string) bool { return v.Test == "*" || v.Test == tag }

// MatchesNode reports whether the node satisfies the vertex's tag test
// and all non-positional value constraints.
func (v *Vertex) MatchesNode(n *xmltree.Node) bool {
	if v.IsDocRoot() {
		return n.Kind == xmltree.DocumentNode
	}
	return n.Kind == xmltree.ElementNode && v.MatchesTag(n.Tag) && v.MatchesConstraints(n)
}

// MatchesConstraints reports whether the node satisfies the vertex's
// non-positional value constraints: MatchesNode for a node already known
// to pass the vertex's kind and tag test.
func (v *Vertex) MatchesConstraints(n *xmltree.Node) bool {
	for _, c := range v.Constraints {
		if c.Kind == CPosition {
			continue // positional constraints need sibling context
		}
		if !c.Match(n, 0) {
			return false
		}
	}
	return true
}

// PositionConstraint returns the vertex's positional constraint, if any.
func (v *Vertex) PositionConstraint() (int, bool) {
	for _, c := range v.Constraints {
		if c.Kind == CPosition {
			return c.Pos, true
		}
	}
	return 0, false
}

// Label renders the vertex for diagnostics: tag, constraints, blossom.
func (v *Vertex) Label() string {
	var sb strings.Builder
	sb.WriteString(v.Test)
	for _, c := range v.Constraints {
		sb.WriteString("[" + c.String() + "]")
	}
	if v.Blossom != "" {
		sb.WriteString("($" + v.Blossom + ")")
	}
	if len(v.Dewey) > 0 {
		sb.WriteString("#" + v.Dewey.String())
	}
	return sb.String()
}

// CrossKind discriminates crossing-edge relationships: structural
// (document order), value-based, or mixed (deep-equal), per §1.
type CrossKind int

// Crossing-edge kinds.
const (
	CrossDocOrder CrossKind = iota // From << To (or >> when Negate+swap)
	CrossValue                     // existential value comparison with Op
	CrossDeepEqual
)

// Crossing is a crossing edge of the BlossomTree: a correlation between
// two vertices generated by the where-clause. Its mode is always
// mandatory (the paper: "the mode m could be 'f' only").
type Crossing struct {
	From, To *Vertex
	Kind     CrossKind
	Op       xpath.CmpOp // for CrossValue
	// FromAttr/ToAttr carry the attribute name when a CrossValue
	// endpoint path ended in an attribute step ($x/@a = $y/@b): the
	// comparison then reads attribute values instead of element
	// string-values. The endpoint vertices are the elements carrying
	// the attributes (attributes are not nodes in this data model).
	FromAttr, ToAttr string
	Negate           bool // wraps the whole (existentially quantified) predicate
}

// String renders the crossing edge.
func (c *Crossing) String() string {
	var rel string
	switch c.Kind {
	case CrossDocOrder:
		rel = "<<"
	case CrossValue:
		rel = c.Op.String()
	case CrossDeepEqual:
		rel = "deep-equal"
	}
	s := fmt.Sprintf("%s %s %s", c.From.Label(), rel, c.To.Label())
	if c.Negate {
		return "not(" + s + ")"
	}
	return s
}

// Hashable reports whether the crossing is a non-negated = value
// comparison: its endpoints meet exactly when their key sets do
// (AppendKeys), so a hash join can pair them.
func (c *Crossing) Hashable() bool {
	return c.Kind == CrossValue && c.Op == xpath.OpEq && !c.Negate
}

// Eval evaluates the crossing predicate between the projected match
// lists of its two endpoints, following the existential semantics of
// XQuery general comparisons. left and right are the matches of From and
// To within one candidate pairing.
func (c *Crossing) Eval(left, right []*xmltree.Node) bool {
	var res bool
	switch c.Kind {
	case CrossDocOrder:
		res = anyBefore(left, right)
	case CrossValue:
		res = c.anyValue(left, right)
	case CrossDeepEqual:
		res = xmltree.DeepEqualSeq(left, right)
	}
	return res != c.Negate
}

// anyBefore reports whether some left node precedes some other right
// node in document order: it stops at the first witness.
func anyBefore(left, right []*xmltree.Node) bool {
	for _, l := range left {
		for _, r := range right {
			if l != r && l.Before(r) {
				return true
			}
		}
	}
	return false
}

// anyValue reports whether some left value compares true against some
// right value under the crossing's operator. It reads each right value
// once and stops at the first witness.
func (c *Crossing) anyValue(left, right []*xmltree.Node) bool {
	var buf [4]string
	rvs := buf[:0]
	for _, r := range right {
		if rv, ok := cmpValue(r, c.ToAttr); ok {
			rvs = append(rvs, rv)
		}
	}
	if len(rvs) == 0 {
		return false
	}
	for _, l := range left {
		lv, ok := cmpValue(l, c.FromAttr)
		if !ok {
			continue
		}
		for _, rv := range rvs {
			if c.Op.Eval(lv, rv) {
				return true
			}
		}
	}
	return false
}

// AppendKeys appends to dst the distinct OpEq hash keys (xpath.KeyOf)
// of an equality crossing endpoint's matches, reading each match's
// value as Eval does: attr is the endpoint's FromAttr or ToAttr. Two
// match lists satisfy the non-negated = crossing exactly when their key
// sets meet.
func AppendKeys(dst []xpath.EqKey, nodes []*xmltree.Node, attr string) []xpath.EqKey {
	n0 := len(dst)
	for _, n := range nodes {
		v, ok := cmpValue(n, attr)
		if !ok {
			continue
		}
		k, ok := xpath.KeyOf(v)
		if ok && !slices.Contains(dst[n0:], k) {
			dst = append(dst, k)
		}
	}
	return dst
}

// cmpValue extracts a node's comparison value: the named attribute's
// value (absent attribute contributes nothing) or the string-value.
func cmpValue(n *xmltree.Node, attr string) (string, bool) {
	if attr == "" {
		return xmltree.StringValue(n), true
	}
	return n.Attr(attr)
}

// BlossomTree is the annotated directed graph of Definition 1: a set of
// interconnected pattern trees (Roots), crossing edges, and the global
// vertex table. Docs maps document URIs to their root vertices; queries
// over a single document have one entry.
type BlossomTree struct {
	Vertices  []*Vertex
	Roots     []*Vertex
	Crossings []*Crossing
	Docs      map[string]*Vertex // doc URI → root vertex ("" key for absolute paths)

	returning *ReturnTree // built by Finalize
}

// NewBlossomTree returns an empty BlossomTree.
func NewBlossomTree() *BlossomTree {
	return &BlossomTree{Docs: make(map[string]*Vertex)}
}

// NewVertex allocates a vertex and registers it.
func (bt *BlossomTree) NewVertex(test string) *Vertex {
	v := &Vertex{ID: len(bt.Vertices), Test: test}
	bt.Vertices = append(bt.Vertices, v)
	return v
}

// AddRoot registers a pattern-tree root for the given document URI,
// reusing an existing root for the same document (the paper's Figure 1
// has a single bib.xml root shared by both for-clauses).
func (bt *BlossomTree) AddRoot(docURI string) *Vertex {
	if r, ok := bt.Docs[docURI]; ok {
		return r
	}
	r := bt.NewVertex("~")
	bt.Roots = append(bt.Roots, r)
	bt.Docs[docURI] = r
	return r
}

// AddChild links child under parent with the given edge annotation.
func (bt *BlossomTree) AddChild(parent, child *Vertex, rel Rel, mode Mode) {
	child.Parent = parent
	child.ParentRel = rel
	child.ParentMode = mode
	parent.Children = append(parent.Children, child)
}

// AddCrossing registers a crossing edge.
func (bt *BlossomTree) AddCrossing(c *Crossing) { bt.Crossings = append(bt.Crossings, c) }

// String renders the BlossomTree as an indented outline with crossing
// edges listed below, for diagnostics and plan explanation.
func (bt *BlossomTree) String() string {
	var sb strings.Builder
	var walk func(v *Vertex, depth int)
	walk = func(v *Vertex, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if v.Parent != nil {
			sb.WriteString(v.ParentRel.String())
			sb.WriteString("(" + v.ParentMode.String() + ") ")
		}
		sb.WriteString(v.Label())
		sb.WriteByte('\n')
		for _, c := range v.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range bt.Roots {
		walk(r, 0)
	}
	for _, c := range bt.Crossings {
		sb.WriteString("cross: " + c.String() + "\n")
	}
	return sb.String()
}
