package xmltree

import (
	"bufio"
	"io"
	"strings"
)

// xmlEscaper escapes the five predefined XML entities in text content and
// attribute values.
var xmlEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&apos;",
)

// WriteOptions controls serialization.
type WriteOptions struct {
	// Indent enables pretty-printing with two-space indentation. Text
	// content containing only inline text is kept on one line.
	Indent bool
}

// stringWriter is what the serializer writes into.
type stringWriter interface {
	io.Writer
	WriteString(string) (int, error)
	WriteByte(byte) error
}

// Write serializes the subtree rooted at n (or the whole document if n is
// a DocumentNode) to w. A w with WriteString and WriteByte, such as a
// bufio.Writer, is written unflushed and keeps its own errors; any other
// w is buffered.
func Write(w io.Writer, n *Node, opts WriteOptions) error {
	if sw, ok := w.(stringWriter); ok {
		writeNode(sw, n, 0, opts)
		return nil
	}
	bw := bufio.NewWriter(w)
	writeNode(bw, n, 0, opts)
	return bw.Flush()
}

// writeIndent starts a new line indented to depth d.
func writeIndent(w stringWriter, d int) {
	w.WriteByte('\n')
	for i := 0; i < d; i++ {
		w.WriteString("  ")
	}
}

// Serialize renders the subtree rooted at n as a string.
func Serialize(n *Node, opts WriteOptions) string {
	var sb strings.Builder
	writeNode(&sb, n, 0, opts)
	return sb.String()
}

func writeNode(w stringWriter, n *Node, depth int, opts WriteOptions) {
	if n == nil {
		return
	}
	switch n.Kind {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			writeNode(w, c, depth, opts)
		}
	case TextNode:
		xmlEscaper.WriteString(w, n.Text)
	case ElementNode:
		w.WriteByte('<')
		w.WriteString(n.Tag)
		for _, a := range n.Attrs {
			w.WriteByte(' ')
			w.WriteString(a.Name)
			w.WriteString(`="`)
			xmlEscaper.WriteString(w, a.Value)
			w.WriteByte('"')
		}
		if n.FirstChild == nil {
			w.WriteString("/>")
			return
		}
		w.WriteByte('>')
		textOnly := true
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Kind != TextNode {
				textOnly = false
				break
			}
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if opts.Indent && !textOnly && c.Kind == ElementNode {
				writeIndent(w, depth+1)
			}
			writeNode(w, c, depth+1, opts)
		}
		if opts.Indent && !textOnly {
			writeIndent(w, depth)
		}
		w.WriteString("</")
		w.WriteString(n.Tag)
		w.WriteByte('>')
	}
}
