package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

func parse(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	doc := parse(t, `<bib><book year="1994"><title>Maximum &amp; Security</title></book><book/><note>x<b/>y</note></bib>`)
	seg := Encode(doc)
	if seg.Nodes() != doc.NodeCount() {
		t.Errorf("Nodes = %d, want %d", seg.Nodes(), doc.NodeCount())
	}
	back, err := seg.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.DeepEqual(doc.DocumentElement(), back.DocumentElement()) {
		t.Errorf("round trip differs:\n%s\nvs\n%s",
			xmltree.Serialize(doc.Root, xmltree.WriteOptions{}),
			xmltree.Serialize(back.Root, xmltree.WriteOptions{}))
	}
	// Region labels on the decoded tree are consistent.
	prev := -1
	xmltree.Walk(back.DocumentElement(), func(n *xmltree.Node) bool {
		if n.Start <= prev || n.End < n.Start {
			t.Error("decoded labels inconsistent")
		}
		prev = n.Start
		return true
	})
}

func TestScanEvents(t *testing.T) {
	doc := parse(t, `<a x="1"><b>t</b></a>`)
	seg := Encode(doc)
	var got []EventKind
	var tags []string
	err := seg.Scan(func(ev Event) bool {
		got = append(got, ev.Kind)
		if ev.Kind == EventOpen {
			tags = append(tags, ev.Tag)
			if ev.Tag == "a" {
				if len(ev.Attrs) != 1 || ev.Attrs[0].Name != "x" || ev.Attrs[0].Value != "1" {
					t.Errorf("attrs = %v", ev.Attrs)
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []EventKind{EventOpen, EventOpen, EventText, EventClose, EventClose}
	if len(got) != len(want) {
		t.Fatalf("events = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
	if tags[0] != "a" || tags[1] != "b" {
		t.Errorf("tags = %v", tags)
	}
}

func TestScanEarlyStop(t *testing.T) {
	doc := parse(t, `<a><b/><c/><d/></a>`)
	seg := Encode(doc)
	count := 0
	if err := seg.Scan(func(Event) bool {
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("visited %d events after early stop", count)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	doc := xmlgen.MustGenerate("d3", xmlgen.Config{Seed: 3, TargetNodes: 800})
	seg := Encode(doc)
	data, err := seg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Segment
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Nodes() != seg.Nodes() {
		t.Errorf("nodes = %d, want %d", back.Nodes(), seg.Nodes())
	}
	d2, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.DeepEqual(doc.DocumentElement(), d2.DocumentElement()) {
		t.Error("marshal round trip differs")
	}
	if back.Stats() == "" {
		t.Error("empty stats")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var s Segment
	bad := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("BTSG1\n"),                       // truncated after magic
		[]byte("BTSG1\n\x05\x02\x03ab"),         // truncated tag
		[]byte("BTSG1\n\x01\x00\xff\xff"),       // truncated code length
		append([]byte("BTSG1\n\x01\x00"), 0xff), // bad varint
	}
	for i, data := range bad {
		if err := s.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: UnmarshalBinary accepted corrupt data", i)
		}
	}
}

func TestScanCorruption(t *testing.T) {
	seg := &Segment{code: []byte{0x07}}
	if err := seg.Scan(func(Event) bool { return true }); err == nil {
		t.Error("unknown opcode accepted")
	}
	seg = &Segment{code: []byte{opClose}}
	if err := seg.Scan(func(Event) bool { return true }); err == nil {
		t.Error("unbalanced close accepted")
	}
	seg = &Segment{code: []byte{opOpen, 0x00, 0x00}, tags: []string{"a"}}
	if err := seg.Scan(func(Event) bool { return true }); err == nil {
		t.Error("unclosed element accepted")
	}
	seg = &Segment{code: []byte{opOpen, 0x09, 0x00}, tags: []string{"a"}}
	if err := seg.Scan(func(Event) bool { return true }); err == nil {
		t.Error("out-of-range tag id accepted")
	}
	seg = &Segment{code: []byte{opText, 0x7f}, tags: nil}
	if err := seg.Scan(func(Event) bool { return true }); err == nil {
		t.Error("truncated text accepted")
	}
}

func TestCompressionOnDatasets(t *testing.T) {
	for _, id := range []string{"d1", "d2", "d3", "d4", "d5"} {
		doc := xmlgen.MustGenerate(id, xmlgen.Config{Seed: 5, TargetNodes: 3000})
		seg := Encode(doc)
		xml := xmltree.Serialize(doc.Root, xmltree.WriteOptions{})
		if ratio := float64(len(xml)) / float64(seg.Size()); ratio < 1.3 {
			t.Errorf("%s: compression ratio %.2f, want > 1.3 (succinct claim)", id, ratio)
		}
	}
}

// TestQuickStorageRoundTrip: random documents encode/decode losslessly
// and Scan produces balanced event streams.
func TestQuickStorageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{MaxNodes: 70, MaxDepth: 9})
		seg := Encode(doc)
		back, err := seg.Decode()
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !xmltree.DeepEqual(doc.DocumentElement(), back.DocumentElement()) {
			return false
		}
		depth := 0
		ok := true
		seg.Scan(func(ev Event) bool {
			switch ev.Kind {
			case EventOpen:
				depth++
			case EventClose:
				depth--
				if depth < 0 {
					ok = false
				}
			}
			return true
		})
		return ok && depth == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
