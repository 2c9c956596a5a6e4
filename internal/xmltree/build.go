package xmltree

import (
	"errors"
	"fmt"
)

// Builder constructs a Document incrementally in document order. It is
// used by the parser and by the synthetic data generators; labels (Start,
// End, Level) are assigned as the tree is built, so a finished document is
// always consistently region-encoded.
//
// Usage:
//
//	b := xmltree.NewBuilder()
//	b.Start("bib")
//	b.Start("book")
//	b.Text("…")
//	b.End()
//	b.End()
//	doc, err := b.Done()
//
// A document's first singleNodes nodes are allocated one by one. From
// then on nodes come in preorder from blocks of blockNodes, and tag names
// are interned, so a large document is a few hundred objects the
// collector marks and its walks read adjacent memory, while a small one
// is built exactly as before. Done moves a partly filled last block into
// an exact-size slice, so no block capacity outlives the build.
type Builder struct {
	doc     *Document
	stack   []*Node
	counter int
	err     error

	block []Node            // the current block; its unused capacity is still free
	tags  map[string]string // one copy of each tag name met past singleNodes
}

const (
	// singleNodes is how many nodes a document allocates one at a time:
	// a 1 024-node document is built exactly as when every node was its
	// own allocation.
	singleNodes = 1024
	// blockNodes is the size of a node block: 256 128-byte nodes are 32
	// KiB, four whole pages, so the allocator rounds nothing up.
	blockNodes = 256
)

// NewBuilder returns a Builder with an empty document node on the stack.
func NewBuilder() *Builder {
	root := &Node{Kind: DocumentNode, Start: -1, Level: 0}
	return &Builder{
		doc:   &Document{Root: root},
		stack: []*Node{root},
	}
}

func (b *Builder) top() *Node { return b.stack[len(b.stack)-1] }

// newNode returns the zero node the next attach labels: its own
// allocation within the first singleNodes, else the next slot of the
// current block.
func (b *Builder) newNode() *Node {
	if b.counter < singleNodes {
		return &Node{}
	}
	if len(b.block) == cap(b.block) {
		b.block = make([]Node, 0, blockNodes)
	}
	b.block = b.block[:len(b.block)+1]
	return &b.block[len(b.block)-1]
}

// intern returns the document's copy of tag once blocks are in use.
func (b *Builder) intern(tag string) string {
	if b.counter < singleNodes {
		return tag
	}
	if t, ok := b.tags[tag]; ok {
		return t
	}
	if b.tags == nil {
		b.tags = make(map[string]string)
	}
	b.tags[tag] = tag
	return tag
}

func (b *Builder) attach(n *Node) {
	p := b.top()
	n.Parent = p
	n.Level = p.Level + 1
	if p.LastChild == nil {
		p.FirstChild = n
		p.LastChild = n
	} else {
		p.LastChild.NextSibling = n
		n.PrevSibling = p.LastChild
		p.LastChild = n
	}
	n.Start = b.counter
	n.End = b.counter
	b.counter++
	b.doc.nodeCount++
}

// Start opens a new element with the given tag.
func (b *Builder) Start(tag string) *Builder { return b.StartAttrs(tag, nil) }

// StartAttrs opens a new element with the given tag and attributes.
func (b *Builder) StartAttrs(tag string, attrs []Attr) *Builder {
	if b.err != nil {
		return b
	}
	if tag == "" {
		b.err = errors.New("xmltree: Builder.Start: empty tag")
		return b
	}
	if len(b.stack) == 1 && b.doc.Root.FirstChild != nil {
		b.err = fmt.Errorf("xmltree: Builder.Start(%q): document already has a root element", tag)
		return b
	}
	n := b.newNode()
	n.Kind, n.Tag, n.Attrs = ElementNode, b.intern(tag), attrs
	b.attach(n)
	b.stack = append(b.stack, n)
	return b
}

// Text appends a text node under the currently open element.
func (b *Builder) Text(s string) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 1 {
		b.err = errors.New("xmltree: Builder.Text outside any element")
		return b
	}
	n := b.newNode()
	n.Kind, n.Text = TextNode, s
	b.attach(n)
	return b
}

// Elem appends a complete leaf element with text content.
func (b *Builder) Elem(tag, text string) *Builder {
	b.Start(tag)
	if text != "" {
		b.Text(text)
	}
	return b.End()
}

// End closes the currently open element and finalizes its region label.
func (b *Builder) End() *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) <= 1 {
		b.err = errors.New("xmltree: Builder.End with no open element")
		return b
	}
	n := b.top()
	n.End = b.counter - 1
	b.stack = b.stack[:len(b.stack)-1]
	return b
}

// Depth returns the number of currently open elements.
func (b *Builder) Depth() int { return len(b.stack) - 1 }

// Err returns the first error encountered, if any.
func (b *Builder) Err() error { return b.err }

// Done finalizes and returns the document. It fails if elements remain
// open or an earlier call failed.
func (b *Builder) Done() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 1 {
		return nil, fmt.Errorf("xmltree: Builder.Done: %d unclosed element(s)", len(b.stack)-1)
	}
	b.doc.Root.End = b.counter
	b.trimBlock()
	return b.doc, nil
}

// trimBlock moves the nodes of a partly filled last block into an
// exact-size slice and relinks them: the block's free capacity would
// otherwise stay allocated as long as any of its nodes. The moved nodes
// are the document's last in preorder, so a node moved iff its Start is
// at least the first moved one's; every link to one is from a moved
// node, from its parent (FirstChild, LastChild) or from its previous
// sibling (NextSibling).
func (b *Builder) trimBlock() {
	k := len(b.block)
	if k == 0 || k == cap(b.block) {
		b.block = nil
		return
	}
	tail := make([]Node, k)
	copy(tail, b.block)
	b.block = nil
	first := b.counter - k
	moved := func(n *Node) *Node {
		if n != nil && n.Start >= first {
			return &tail[n.Start-first]
		}
		return n
	}
	for i := range tail {
		n := &tail[i]
		n.Parent, n.FirstChild, n.LastChild = moved(n.Parent), moved(n.FirstChild), moved(n.LastChild)
		n.NextSibling, n.PrevSibling = moved(n.NextSibling), moved(n.PrevSibling)
		if p := n.Parent; p.Start < first {
			p.FirstChild, p.LastChild = moved(p.FirstChild), moved(p.LastChild)
		}
		if s := n.PrevSibling; s != nil && s.Start < first {
			s.NextSibling = moved(s.NextSibling)
		}
	}
}

// MustDone is Done for tests with known-good build sequences; library
// and generator code must use Done and propagate the error.
func (b *Builder) MustDone() *Document {
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}
