// Package storage implements a succinct physical storage scheme for XML
// documents, after the substrate the hybrid approach builds on (Zhang,
// Kacholia, Özsu, "A Succinct Physical Storage Scheme for Efficient
// Evaluation of Path Queries in XML", ICDE 2004 — the paper's reference
// [22]): the document's topology is stored as a compact preorder
// bytecode (open/text/close operations with varint-coded tag ids over a
// deduplicated tag table), which supports exactly the access pattern the
// NoK pattern-matching operator needs — a single sequential scan
// replaying the tree in document order — while being several times
// smaller than the serialized XML.
//
// The segment can be scanned without materializing the tree (Scan), or
// decoded back into a fully labeled xmltree.Document (Decode). Segments
// marshal to a self-contained binary format.
//
// The decoder trusts nothing: every varint-coded length and id is
// bounds-checked against the remaining input in uint64 space before any
// allocation or slice, so corrupt or adversarial segments (including the
// persistent segment-store files read back from disk) fail with an
// error wrapping ErrCorrupt instead of over-allocating or panicking.
// FuzzSegmentRoundTrip exercises exactly this contract.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"blossomtree/internal/xmltree"
)

// ErrCorrupt is wrapped by every decode error: the input is not a valid
// segment (bad magic, truncated varint, out-of-range id, or a length
// that exceeds the remaining input). Callers branch with errors.Is to
// distinguish corruption from I/O failures.
var ErrCorrupt = errors.New("corrupt segment")

// corruptf builds a decode error wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("storage: "+format+": %w", append(args, ErrCorrupt)...)
}

// Opcodes of the topology bytecode.
const (
	opOpen  = 0x01 // varint tagID, varint attrCount, attrCount × (varint nameID, varint len, bytes)
	opText  = 0x02 // varint len, bytes
	opClose = 0x03
)

// Segment is one encoded document.
type Segment struct {
	tags  []string // deduplicated tag and attribute names
	code  []byte   // preorder topology bytecode
	nodes int      // element + text count
}

// Encode serializes a document into a segment.
func Encode(doc *xmltree.Document) *Segment {
	s := &Segment{}
	ids := map[string]int{}
	intern := func(t string) int {
		if id, ok := ids[t]; ok {
			return id
		}
		id := len(s.tags)
		ids[t] = id
		s.tags = append(s.tags, t)
		return id
	}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		switch n.Kind {
		case xmltree.ElementNode:
			s.nodes++
			s.code = append(s.code, opOpen)
			s.code = binary.AppendUvarint(s.code, uint64(intern(n.Tag)))
			s.code = binary.AppendUvarint(s.code, uint64(len(n.Attrs)))
			for _, a := range n.Attrs {
				s.code = binary.AppendUvarint(s.code, uint64(intern(a.Name)))
				s.code = binary.AppendUvarint(s.code, uint64(len(a.Value)))
				s.code = append(s.code, a.Value...)
			}
			for c := n.FirstChild; c != nil; c = c.NextSibling {
				walk(c)
			}
			s.code = append(s.code, opClose)
		case xmltree.TextNode:
			s.nodes++
			s.code = append(s.code, opText)
			s.code = binary.AppendUvarint(s.code, uint64(len(n.Text)))
			s.code = append(s.code, n.Text...)
		}
	}
	if doc.Root != nil {
		for c := doc.Root.FirstChild; c != nil; c = c.NextSibling {
			walk(c)
		}
	}
	return s
}

// Size returns the encoded byte size (bytecode plus tag table).
func (s *Segment) Size() int {
	n := len(s.code)
	for _, t := range s.tags {
		n += len(t) + 2
	}
	return n
}

// Nodes returns the number of element and text nodes in the segment.
func (s *Segment) Nodes() int { return s.nodes }

// Tags returns the deduplicated tag/attribute-name table. The returned
// slice is shared; callers must not modify it.
func (s *Segment) Tags() []string { return s.tags }

// EventKind discriminates scan events.
type EventKind uint8

// Scan event kinds: the SAX-style callbacks the navigational operator
// consumes.
const (
	EventOpen EventKind = iota
	EventText
	EventClose
)

// Event is one step of a sequential segment scan.
type Event struct {
	Kind  EventKind
	Tag   string         // for EventOpen
	Attrs []xmltree.Attr // for EventOpen
	Text  string         // for EventText
}

// Scan replays the document in document order without building a tree:
// the single-scan access method of the NoK operator. The visitor returns
// false to stop early. Scan reports any corruption it encounters (the
// error wraps ErrCorrupt).
func (s *Segment) Scan(visit func(Event) bool) error {
	pos := 0
	depth := 0
	// remaining returns the bytes left after pos; every length read from
	// the bytecode is validated against it in uint64 space before it is
	// converted to int, so a huge varint can neither wrap negative nor
	// drive an over-allocation.
	for pos < len(s.code) {
		op := s.code[pos]
		pos++
		switch op {
		case opOpen:
			tagID, n := binary.Uvarint(s.code[pos:])
			if n <= 0 || tagID >= uint64(len(s.tags)) {
				return corruptf("bad tag id at %d", pos)
			}
			pos += n
			nattrs, n := binary.Uvarint(s.code[pos:])
			// Each attribute costs at least two bytes (name id + value
			// length), so an attr count past the remaining bytes is corrupt
			// regardless of what follows.
			if n <= 0 || nattrs > uint64(len(s.code)-pos) {
				return corruptf("bad attr count at %d", pos)
			}
			pos += n
			var attrs []xmltree.Attr
			for i := uint64(0); i < nattrs; i++ {
				nameID, n := binary.Uvarint(s.code[pos:])
				if n <= 0 || nameID >= uint64(len(s.tags)) {
					return corruptf("bad attr name at %d", pos)
				}
				pos += n
				vlen, n := binary.Uvarint(s.code[pos:])
				if n <= 0 || vlen > uint64(len(s.code)-pos-n) {
					return corruptf("bad attr value at %d", pos)
				}
				pos += n
				attrs = append(attrs, xmltree.Attr{Name: s.tags[nameID], Value: string(s.code[pos : pos+int(vlen)])})
				pos += int(vlen)
			}
			depth++
			if !visit(Event{Kind: EventOpen, Tag: s.tags[tagID], Attrs: attrs}) {
				return nil
			}
		case opText:
			tlen, n := binary.Uvarint(s.code[pos:])
			if n <= 0 || tlen > uint64(len(s.code)-pos-n) {
				return corruptf("bad text at %d", pos)
			}
			pos += n
			if !visit(Event{Kind: EventText, Text: string(s.code[pos : pos+int(tlen)])}) {
				return nil
			}
			pos += int(tlen)
		case opClose:
			if depth == 0 {
				return corruptf("unbalanced close at %d", pos-1)
			}
			depth--
			if !visit(Event{Kind: EventClose}) {
				return nil
			}
		default:
			return corruptf("unknown opcode %#x at %d", op, pos-1)
		}
	}
	if depth != 0 {
		return corruptf("%d unclosed element(s)", depth)
	}
	return nil
}

// Decode rebuilds a fully labeled document from the segment.
func (s *Segment) Decode() (*xmltree.Document, error) {
	b := xmltree.NewBuilder()
	err := s.Scan(func(ev Event) bool {
		switch ev.Kind {
		case EventOpen:
			b.StartAttrs(ev.Tag, ev.Attrs)
		case EventText:
			b.Text(ev.Text)
		case EventClose:
			b.End()
		}
		return b.Err() == nil
	})
	if err != nil {
		return nil, err
	}
	doc, err := b.Done()
	if err != nil {
		// A scan the bytecode validator accepted but the tree builder
		// rejects (e.g. text outside any element) is still a corrupt
		// segment: Encode never produces such shapes.
		return nil, corruptf("decode: %v", err)
	}
	doc.Bytes = int64(s.Size())
	return doc, nil
}

// magic identifies marshaled segments.
var magic = []byte("BTSG1\n")

// MarshalBinary serializes the segment.
func (s *Segment) MarshalBinary() ([]byte, error) {
	var out []byte
	out = append(out, magic...)
	out = binary.AppendUvarint(out, uint64(s.nodes))
	out = binary.AppendUvarint(out, uint64(len(s.tags)))
	for _, t := range s.tags {
		out = binary.AppendUvarint(out, uint64(len(t)))
		out = append(out, t...)
	}
	out = binary.AppendUvarint(out, uint64(len(s.code)))
	out = append(out, s.code...)
	return out, nil
}

// View parses a marshaled segment without copying: the returned
// segment's bytecode aliases data, so data must stay valid (and
// unmodified) for the segment's lifetime. This is the segment store's
// read path — the topology bytecode is scanned straight out of the file
// image. Decode errors wrap ErrCorrupt.
func View(data []byte) (*Segment, error) {
	s := &Segment{}
	if err := s.view(data); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Segment) view(data []byte) error {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return corruptf("bad magic")
	}
	pos := len(magic)
	read := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, corruptf("truncated varint at %d", pos)
		}
		pos += n
		return v, nil
	}
	nodes, err := read()
	if err != nil {
		return err
	}
	ntags, err := read()
	if err != nil {
		return err
	}
	// Every tag costs at least one byte (its length varint) and every
	// node at least one bytecode byte, so counts past the remaining input
	// are corrupt. Checking before the make() caps allocation at the
	// input's own size.
	if ntags > uint64(len(data)-pos) {
		return corruptf("tag count %d exceeds input", ntags)
	}
	if nodes > uint64(len(data)-pos) {
		return corruptf("node count %d exceeds input", nodes)
	}
	tags := make([]string, 0, ntags)
	for i := uint64(0); i < ntags; i++ {
		l, err := read()
		if err != nil {
			return err
		}
		if l > uint64(len(data)-pos) {
			return corruptf("truncated tag at %d", pos)
		}
		tags = append(tags, string(data[pos:pos+int(l)]))
		pos += int(l)
	}
	clen, err := read()
	if err != nil {
		return err
	}
	if clen > uint64(len(data)-pos) {
		return corruptf("truncated code at %d", pos)
	}
	s.nodes = int(nodes)
	s.tags = tags
	s.code = data[pos : pos+int(clen) : pos+int(clen)]
	return nil
}
