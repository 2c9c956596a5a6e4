package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"strings"
)

// Parse reads an XML document from r and builds the labeled tree.
// Comments, processing instructions and directives are skipped, and the
// character data around them is one text node; whitespace-only text
// between elements is dropped (it carries no query semantics in the
// paper's data model), other text is kept verbatim.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	dec.Strict = true

	b := NewBuilder()
	depth := 0
	// text gathers the character data since the last tag: a comment, a
	// processing instruction or a CDATA section does not end a text node,
	// so no two text nodes are adjacent.
	var text []byte
	flushText := func() {
		if len(bytes.TrimSpace(text)) > 0 {
			b.Text(string(text))
		}
		text = text[:0]
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flushText()
			attrs := make([]Attr, 0, len(t.Attr))
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				attrs = append(attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			b.StartAttrs(t.Name.Local, attrs)
			depth++
		case xml.EndElement:
			flushText()
			if depth == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end tag </%s>", t.Name.Local)
			}
			b.End()
			depth--
		case xml.CharData:
			if depth == 0 {
				continue // whitespace or stray text outside the document element
			}
			text = append(text, t...)
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("xmltree: parse: %d unclosed element(s)", depth)
	}
	doc, err := b.Done()
	if err != nil {
		return nil, err
	}
	if doc.DocumentElement() == nil {
		return nil, fmt.Errorf("xmltree: parse: document has no element content")
	}
	return doc, nil
}

// ParseString parses a document from a string.
func ParseString(s string) (*Document, error) {
	doc, err := Parse(strings.NewReader(s))
	if err != nil {
		return nil, err
	}
	doc.Bytes = int64(len(s))
	return doc, nil
}

// ParseFile parses the named file and records its on-disk size.
func ParseFile(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmltree: %w", err)
	}
	defer f.Close()
	doc, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("xmltree: %s: %w", path, err)
	}
	if st, err := f.Stat(); err == nil {
		doc.Bytes = st.Size()
	}
	doc.Name = path
	return doc, nil
}
