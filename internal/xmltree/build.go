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
type Builder struct {
	doc     *Document
	stack   []*Node
	counter int
	err     error
}

// NewBuilder returns a Builder with an empty document node on the stack.
func NewBuilder() *Builder {
	root := &Node{Kind: DocumentNode, Start: -1, Level: 0}
	return &Builder{
		doc:   &Document{Root: root},
		stack: []*Node{root},
	}
}

func (b *Builder) top() *Node { return b.stack[len(b.stack)-1] }

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
	n := &Node{Kind: ElementNode, Tag: tag, Attrs: attrs}
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
	n := &Node{Kind: TextNode, Text: s}
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
	return b.doc, nil
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
