package xmltree

import "strings"

// Fragment is the output of a query's element constructors: constructed
// elements whose content is literal text and references to nodes of the
// source documents. A referenced node is serialized in place, so
// construction costs one item per reference however large the subtree.
// It serializes byte for byte as a document holding a deep copy of every
// referenced subtree would (XQuery 1.0 §3.7.1.3).
//
// Items are kept in document order in one slice: a constructed element's
// item is followed by its content, up to its end index. A Fragment is
// built once, by Start/Text/Ref/End calls in document order, and is
// read-only once its root element has ended. The zero value is empty.
type Fragment struct {
	items []fragItem
	open  []int32 // the start items of the elements not yet ended
}

type fragKind uint8

const (
	fragElem fragKind = iota // a constructed element; s is its tag
	fragText                 // literal text s
	fragRef                  // a referenced source element or text node
)

type fragItem struct {
	kind fragKind
	// mixed marks a constructed element with an element among its
	// content, which Indent puts on lines of their own.
	mixed bool
	end   int32 // a constructed element: one past its last content item
	s     string
	node  *Node
}

// Start opens a constructed element: the root, or content of the open
// element. Every Start is matched by an End, and content is added only
// while an element is open.
func (f *Fragment) Start(tag string) {
	f.content(true)
	f.open = append(f.open, int32(len(f.items)))
	f.items = append(f.items, fragItem{kind: fragElem, s: tag})
}

// End closes the innermost open element.
func (f *Fragment) End() {
	f.items[f.open[len(f.open)-1]].end = int32(len(f.items))
	f.open = f.open[:len(f.open)-1]
}

// Text appends literal text to the open element.
func (f *Fragment) Text(s string) {
	f.content(false)
	f.items = append(f.items, fragItem{kind: fragText, s: s})
}

// Ref appends a source node to the open element's content. A document
// node contributes its children.
func (f *Fragment) Ref(n *Node) {
	if n.Kind == DocumentNode {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			f.Ref(c)
		}
		return
	}
	f.content(n.Kind == ElementNode)
	f.items = append(f.items, fragItem{kind: fragRef, node: n})
}

// content marks the open element, if any, mixed when its next content
// item is an element.
func (f *Fragment) content(elem bool) {
	if elem && len(f.open) > 0 {
		f.items[f.open[len(f.open)-1]].mixed = true
	}
}

// Serialize renders the fragment as a string.
func (f *Fragment) Serialize(opts WriteOptions) string {
	var sb strings.Builder
	f.writeElem(&sb, 0, 0, opts)
	return sb.String()
}

// writeElem writes the constructed element at item i as writeNode writes
// an element, and returns the index past its content.
func (f *Fragment) writeElem(w stringWriter, i int, depth int, opts WriteOptions) int {
	if i == len(f.items) {
		return i
	}
	e := f.items[i]
	w.WriteByte('<')
	w.WriteString(e.s)
	end := int(e.end)
	if end == i+1 {
		w.WriteString("/>")
		return end
	}
	w.WriteByte('>')
	indent := opts.Indent && e.mixed
	for j := i + 1; j < end; {
		c := f.items[j]
		if indent && (c.kind == fragElem || c.kind == fragRef && c.node.Kind == ElementNode) {
			writeIndent(w, depth+1)
		}
		switch c.kind {
		case fragElem:
			j = f.writeElem(w, j, depth+1, opts)
			continue
		case fragText:
			xmlEscaper.WriteString(w, c.s)
		case fragRef:
			writeNode(w, c.node, depth+1, opts)
		}
		j++
	}
	if indent {
		writeIndent(w, depth)
	}
	w.WriteString("</")
	w.WriteString(e.s)
	w.WriteByte('>')
	return end
}
