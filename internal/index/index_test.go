package index

import (
	"strings"
	"testing"

	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

func buildDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(`<a><b/><c><b/><d>t</d></c><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBuildAndLookup(t *testing.T) {
	ix := Build(buildDoc(t))
	if got := ix.Count("b"); got != 3 {
		t.Errorf("Count(b) = %d, want 3", got)
	}
	if got := ix.Count("a"); got != 1 {
		t.Errorf("Count(a) = %d, want 1", got)
	}
	if got := ix.Count("zzz"); got != 0 {
		t.Errorf("Count(zzz) = %d, want 0", got)
	}
	if got := ix.TotalElements(); got != 6 {
		t.Errorf("TotalElements = %d, want 6", got)
	}
	if got := len(ix.Nodes("*")); got != 6 {
		t.Errorf("Nodes(*) = %d, want 6", got)
	}
	bs := ix.Nodes("b")
	for i := 1; i < len(bs); i++ {
		if !bs[i-1].Before(bs[i]) {
			t.Error("inverted list not in document order")
		}
	}
	tags := ix.Tags()
	want := []string{"a", "b", "c", "d"}
	if len(tags) != len(want) {
		t.Fatalf("Tags = %v", tags)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Errorf("Tags[%d] = %q, want %q", i, tags[i], want[i])
		}
	}
	if s := ix.Selectivity("b"); s != 0.5 {
		t.Errorf("Selectivity(b) = %v, want 0.5", s)
	}
	if ix.Document() == nil {
		t.Error("Document() is nil")
	}
}

func TestSelectivityEmpty(t *testing.T) {
	ix := &TagIndex{lists: map[string][]*xmltree.Node{}}
	if s := ix.Selectivity("x"); s != 0 {
		t.Errorf("Selectivity on empty index = %v", s)
	}
}

func TestStream(t *testing.T) {
	ix := Build(buildDoc(t))
	s := ix.Stream("b")
	if s.Len() != 3 || s.EOF() {
		t.Fatalf("fresh stream: Len=%d EOF=%v", s.Len(), s.EOF())
	}
	first := s.Head()
	if first == nil || first.Tag != "b" {
		t.Fatalf("Head = %v", first)
	}
	if got := s.Next(); got != first {
		t.Error("Next did not return head")
	}
	s.Advance()
	s.Advance()
	if !s.EOF() || s.Head() != nil || s.Next() != nil {
		t.Error("stream should be exhausted")
	}
	s.Advance() // no-op past EOF
	if s.Len() != 0 {
		t.Errorf("Len past EOF = %d", s.Len())
	}
	s.Reset()
	if s.Head() != first {
		t.Error("Reset did not rewind")
	}
}

func TestStreamSkipTo(t *testing.T) {
	ix := Build(buildDoc(t))
	s := ix.Stream("b")
	b3 := ix.Nodes("b")[2]
	s.SkipTo(b3.Start)
	if s.Head() != b3 {
		t.Errorf("SkipTo landed on %v, want %v", s.Head(), b3)
	}
	// SkipTo never moves backwards.
	s.SkipTo(0)
	if s.Head() != b3 {
		t.Error("SkipTo moved backwards")
	}
	s.SkipTo(b3.Start + 1000)
	if !s.EOF() {
		t.Error("SkipTo past end should exhaust stream")
	}
	s.SkipTo(0) // no-op at EOF
	if !s.EOF() {
		t.Error("SkipTo at EOF should stay EOF")
	}
}

// TestStreamSkipToGallops: wherever the galloping search lands, it lands
// where a linear walk would, and it charges exactly the positions it
// passed — to the stats and to the governor alike — without allocating.
func TestStreamSkipToGallops(t *testing.T) {
	doc, err := xmltree.ParseString("<a>" + strings.Repeat("<b/>", 40) + "</a>")
	if err != nil {
		t.Fatal(err)
	}
	bs := Build(doc).Nodes("b")
	cases := []struct {
		name     string
		from     int // cursor position before the skip
		target   int // SkipTo argument
		wantPos  int
		wantSkip int64
	}{
		{"zero: head already there", 5, bs[5].Start, 5, 0},
		{"zero: backwards target", 20, bs[3].Start, 20, 0},
		{"one", 5, bs[6].Start, 6, 1},
		{"one, between nodes", 5, bs[5].Start + 1, 6, 1},
		{"two", 5, bs[7].Start, 7, 2},
		{"many", 2, bs[37].Start, 37, 35},
		{"to the last node", 0, bs[39].Start, 39, 39},
		{"to EOF", 10, bs[39].Start + 1, 40, 30},
		{"past EOF", 0, 1 << 30, 40, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream(bs)
			s.pos = tc.from
			s.Stats = obs.NewOpStats("stream", "")
			s.Gov = gov.New(nil, gov.Budget{MaxNodes: 1 << 20}, nil)
			s.SkipTo(tc.target)
			if s.pos != tc.wantPos {
				t.Errorf("landed at %d, want %d", s.pos, tc.wantPos)
			}
			if got := s.Stats.Scanned(); got != tc.wantSkip {
				t.Errorf("stats charged %d, want %d", got, tc.wantSkip)
			}
			if got := s.Gov.NodesScanned(); got != tc.wantSkip {
				t.Errorf("governor charged %d, want %d", got, tc.wantSkip)
			}
		})
	}
	s := NewStream(bs)
	if allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.SkipTo(bs[1].Start)
		s.SkipTo(bs[30].Start)
		s.SkipTo(1 << 30)
	}); allocs != 0 {
		t.Errorf("SkipTo allocates %.0f objects per run, want 0", allocs)
	}
}
