package storage

import (
	"errors"
	"testing"

	"blossomtree/internal/xmltree"
)

// FuzzSegmentRoundTrip is the decoder-hardening contract as a fuzz
// target: arbitrary bytes fed to View, the segment store's read path,
// must either be rejected with an error wrapping ErrCorrupt or produce a
// segment whose Decode (if it succeeds) re-encodes and re-decodes to the
// identical document.
// No input may panic or drive an allocation past the input's own size —
// the varint-coded counts and lengths are attacker-controlled and the
// segment store hands this decoder file contents.
func FuzzSegmentRoundTrip(f *testing.F) {
	seedDocs := []string{
		`<a/>`,
		`<bib><book year="1994"><title>TCP/IP</title><price>65.95</price></book></bib>`,
		`<r><p id="1">x<q/>y</p><p id="2"><q><q>deep</q></q></p></r>`,
		`<mixed a="&lt;" b="">text &amp; more<child xmlns="ignored">t</child></mixed>`,
	}
	for _, src := range seedDocs {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			f.Fatal(err)
		}
		data, err := Encode(doc).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// A truncated valid segment exercises every "exceeds input" path.
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte("BTSG1\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := View(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		doc, err := s.Decode()
		if err != nil {
			// Structurally invalid bytecode (bad opcode, unbalanced close)
			// inside a well-framed segment: must be typed corruption.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted input: the decoded document must round-trip losslessly
		// through a fresh encode/decode cycle.
		re, err := Encode(doc).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := View(re)
		if err != nil {
			t.Fatalf("re-encoded segment rejected: %v", err)
		}
		doc2, err := s2.Decode()
		if err != nil {
			t.Fatalf("re-encoded segment failed to decode: %v", err)
		}
		a := xmltree.Serialize(doc.Root, xmltree.WriteOptions{})
		b := xmltree.Serialize(doc2.Root, xmltree.WriteOptions{})
		if a != b {
			t.Fatalf("round trip differs:\n%s\nvs\n%s", a, b)
		}
	})
}

// TestUnmarshalCorrupt pins the hardening paths the fuzzer explores:
// every malformed shape is rejected with ErrCorrupt instead of a panic
// or an over-allocation.
func TestUnmarshalCorrupt(t *testing.T) {
	doc, err := xmltree.ParseString(`<a x="1"><b>t</b><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := Encode(doc).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  []byte("NOTSEG\n\x00"),
		"magic only": []byte("BTSG1\n"),
		// Huge varint tag count: must be rejected before allocation.
		"huge tag count": append(append([]byte{}, "BTSG1\n\x02"...),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"truncated half": valid[:len(valid)/2],
		"truncated tail": valid[:len(valid)-1],
	}
	for name, data := range cases {
		s, err := View(data)
		if err == nil {
			// Truncations can still frame correctly if they cut on a
			// boundary; then Decode must catch the damage.
			if _, derr := s.Decode(); derr == nil {
				t.Errorf("%s: accepted and decoded", name)
			} else if !errors.Is(derr, ErrCorrupt) {
				t.Errorf("%s: Decode error not ErrCorrupt: %v", name, derr)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error not ErrCorrupt: %v", name, err)
		}
	}

	// Out-of-range ids inside otherwise framed bytecode.
	s := &Segment{tags: []string{"a"}, nodes: 1}
	s.code = []byte{opOpen, 0x7f, 0x00} // tag id 127 with a 1-entry table
	if err := s.Scan(func(Event) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad tag id: %v", err)
	}
	s.code = []byte{opOpen, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f} // huge attr count
	if err := s.Scan(func(Event) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge attr count: %v", err)
	}
	s.code = []byte{opClose}
	if err := s.Scan(func(Event) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unbalanced close: %v", err)
	}
	s.code = []byte{opText, 0xff, 0x01, 'x'} // text length past input
	if err := s.Scan(func(Event) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("text overrun: %v", err)
	}
}
