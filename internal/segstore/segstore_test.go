package segstore

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blossomtree/internal/index"
	"blossomtree/internal/storage"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

const bibXML = `<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last><first>W.</first></author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><author><last>Abiteboul</last><first>Serge</first></author><price>39.95</price></book>
  <book year="1999"><title>The Economics of Technology</title><editor><last>Gerbarg</last><first>Darcy</first></editor><price>129.95</price></book>
</bib>`

func mustParse(t *testing.T, xml string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func saveDoc(t *testing.T, st *Store, uri, xml string) {
	t.Helper()
	doc := mustParse(t, xml)
	if err := st.Save(uri, doc, xmltree.ComputeStats(doc), nil); err != nil {
		t.Fatalf("Save(%s): %v", uri, err)
	}
}

// sameIndex verifies a store-served TagIndex against a freshly built
// one: identical tag alphabets and identical region labels per posting
// list.
func sameIndex(t *testing.T, got, want *index.TagIndex) {
	t.Helper()
	gt, wt := got.Tags(), want.Tags()
	if len(gt) != len(wt) {
		t.Fatalf("tag alphabets differ: got %v want %v", gt, wt)
	}
	for i := range gt {
		if gt[i] != wt[i] {
			t.Fatalf("tag alphabets differ at %d: %q vs %q", i, gt[i], wt[i])
		}
	}
	for _, tag := range append(wt, "*") {
		gn, wn := got.Nodes(tag), want.Nodes(tag)
		if len(gn) != len(wn) {
			t.Fatalf("tag %q: %d nodes, want %d", tag, len(gn), len(wn))
		}
		for i := range wn {
			if gn[i].Start != wn[i].Start || gn[i].End != wn[i].End || gn[i].Level != wn[i].Level {
				t.Fatalf("tag %q node %d: labels (%d,%d,%d) want (%d,%d,%d)", tag, i,
					gn[i].Start, gn[i].End, gn[i].Level, wn[i].Start, wn[i].End, wn[i].Level)
			}
		}
	}
}

func TestSaveReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	saveDoc(t, st, "bib.xml", bibXML)

	// Same-process read back.
	od, err := st.Document("bib.xml")
	if err != nil {
		t.Fatalf("Document: %v", err)
	}
	orig := mustParse(t, bibXML)
	if xmltree.Serialize(od.Doc.Root, xmltree.WriteOptions{}) != xmltree.Serialize(orig.Root, xmltree.WriteOptions{}) {
		t.Fatal("materialized document serializes differently from the original")
	}
	sameIndex(t, od.Index, index.Build(orig))
	if od.Stats.Elements != xmltree.ComputeStats(orig).Elements {
		t.Fatalf("stats elements %d, want %d", od.Stats.Elements, xmltree.ComputeStats(orig).Elements)
	}

	// Cross-process reopen.
	st2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Warnings()) != 0 {
		t.Fatalf("reopen warnings: %v", st2.Warnings())
	}
	if got := st2.URIs(); len(got) != 1 || got[0] != "bib.xml" {
		t.Fatalf("URIs after reopen: %v", got)
	}
	if st2.Generation() != st.Generation() {
		t.Fatalf("generation %d after reopen, want %d", st2.Generation(), st.Generation())
	}
	od2, err := st2.Document("bib.xml")
	if err != nil {
		t.Fatalf("Document after reopen: %v", err)
	}
	sameIndex(t, od2.Index, index.Build(orig))
}

func TestGeneratedDocsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		doc := xmlgen.MustRandom(r, xmlgen.RandomSpec{MaxNodes: 200, MaxDepth: 6, AttrProb: 30})
		uri := "gen" + string(rune('a'+i)) + ".xml"
		if err := st.Save(uri, doc, xmltree.ComputeStats(doc), nil); err != nil {
			t.Fatalf("Save: %v", err)
		}
		od, err := st.Document(uri)
		if err != nil {
			t.Fatalf("Document: %v", err)
		}
		if xmltree.Serialize(od.Doc.Root, xmltree.WriteOptions{}) != xmltree.Serialize(doc.Root, xmltree.WriteOptions{}) {
			t.Fatalf("doc %d: serialization differs after round trip", i)
		}
		sameIndex(t, od.Index, index.Build(doc))
	}
}

func TestGenerationMonotonic(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenDir(dir, Options{})
	if st.Generation() != 0 {
		t.Fatalf("fresh store generation %d", st.Generation())
	}
	saveDoc(t, st, "a.xml", `<a><x/></a>`)
	saveDoc(t, st, "b.xml", `<b><y/></b>`)
	if st.Generation() != 2 {
		t.Fatalf("generation %d after two saves", st.Generation())
	}
	// Re-persisting an existing URI still bumps: the catalog changed.
	saveDoc(t, st, "a.xml", `<a><x/><x/></a>`)
	if st.Generation() != 3 {
		t.Fatalf("generation %d after re-save", st.Generation())
	}
	st2, _ := OpenDir(dir, Options{})
	if st2.Generation() != 3 {
		t.Fatalf("generation %d after reopen, want 3", st2.Generation())
	}
	saveDoc(t, st2, "c.xml", `<c/>`)
	if st2.Generation() != 4 {
		t.Fatalf("generation %d, want 4: generations must keep rising across restarts", st2.Generation())
	}
}

// corruptOneByte flips one byte in the middle of the named segment file.
func corruptOneByte(t *testing.T, dir, uri string) {
	t.Helper()
	path := filepath.Join(dir, segmentFileName(uri))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenDir(dir, Options{})
	saveDoc(t, st, "bib.xml", bibXML)
	saveDoc(t, st, "ok.xml", `<ok><v>1</v></ok>`)
	corruptOneByte(t, dir, "bib.xml")

	st2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatalf("OpenDir over corrupt segment must not fail: %v", err)
	}
	if st2.Has("bib.xml") {
		t.Fatal("corrupt segment still served")
	}
	if !st2.Has("ok.xml") {
		t.Fatal("intact segment lost alongside the corrupt one")
	}
	if _, err := st2.Document("bib.xml"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Document on quarantined segment: %v, want ErrCorrupt", err)
	}
	reasons := st2.Corrupt()
	if r, ok := reasons["bib.xml"]; !ok || !strings.Contains(r, "checksum") {
		t.Fatalf("quarantine reasons: %v", reasons)
	}
	if len(st2.Warnings()) == 0 {
		t.Fatal("no warning for quarantined segment")
	}
}

func TestTornWriteQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenDir(dir, Options{})
	saveDoc(t, st, "bib.xml", bibXML)
	// Simulate a crash mid-write that somehow survived as the real file
	// (e.g. a torn rename on a non-atomic filesystem): truncate it.
	path := filepath.Join(dir, segmentFileName("bib.xml"))
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Has("bib.xml") {
		t.Fatal("truncated segment still served")
	}
}

func TestInterruptedWriteLeavesOldStateAndCleansTemp(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenDir(dir, Options{})
	saveDoc(t, st, "bib.xml", bibXML)
	// A crash between temp-file write and rename leaves tmp-* garbage;
	// the segment and manifest still describe the pre-crash state.
	if err := os.WriteFile(filepath.Join(dir, "tmp-123456"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Has("bib.xml") {
		t.Fatal("old state lost")
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-123456")); !os.IsNotExist(err) {
		t.Fatal("leftover temp file not swept on open")
	}
}

func TestCorruptManifestStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenDir(dir, Options{})
	saveDoc(t, st, "bib.xml", bibXML)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatalf("OpenDir over corrupt manifest must recover: %v", err)
	}
	if len(st2.URIs()) != 0 {
		t.Fatalf("URIs served without a manifest: %v", st2.URIs())
	}
	if len(st2.Warnings()) == 0 {
		t.Fatal("no warning for lost manifest")
	}
	// The store remains writable: re-persisting rebuilds the catalog.
	saveDoc(t, st2, "bib.xml", bibXML)
	if !st2.Has("bib.xml") {
		t.Fatal("store not writable after manifest recovery")
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenDir(dir, Options{})
	saveDoc(t, st, "a.xml", `<a><x>one</x><x>two</x></a>`)
	saveDoc(t, st, "b.xml", `<b><y>three</y></b>`)

	// Budget below one document: each materialization evicts the other.
	tight, err := OpenDir(dir, Options{ByteBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	odA, err := tight.Document("a.xml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tight.Document("b.xml"); err != nil {
		t.Fatal(err)
	}
	// a.xml was evicted; its OpenDoc must remain fully usable.
	if got := odA.Index.Count("x"); got != 2 {
		t.Fatalf("evicted document's index broken: count(x)=%d", got)
	}
	// Re-materialization serves identical content.
	odA2, err := tight.Document("a.xml")
	if err != nil {
		t.Fatal(err)
	}
	if xmltree.Serialize(odA2.Doc.Root, xmltree.WriteOptions{}) != xmltree.Serialize(odA.Doc.Root, xmltree.WriteOptions{}) {
		t.Fatal("re-materialized document differs")
	}

	// Unlimited budget keeps both resident and returns identical pointers.
	wide, _ := OpenDir(dir, Options{ByteBudget: -1})
	w1, _ := wide.Document("a.xml")
	w2, _ := wide.Document("a.xml")
	if w1.Doc != w2.Doc {
		t.Fatal("resident document re-materialized under unlimited budget")
	}
	if wide.Resident() <= 0 {
		t.Fatal("resident accounting empty with materialized documents")
	}
}

func TestUpToDate(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(src, []byte(bibXML), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _ := OpenDir(dir, Options{})
	doc := mustParse(t, bibXML)
	info, err := FileInfo(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("doc.xml", doc, xmltree.ComputeStats(doc), &info); err != nil {
		t.Fatal(err)
	}
	if !st.UpToDate("doc.xml", src) {
		t.Fatal("unchanged file reported stale")
	}
	st2, _ := OpenDir(dir, Options{})
	if !st2.UpToDate("doc.xml", src) {
		t.Fatal("fingerprint lost across reopen")
	}
	// Change the file: content and size differ, so the segment is stale.
	if err := os.WriteFile(src, []byte(bibXML+"<!-- changed -->"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st2.UpToDate("doc.xml", src) {
		t.Fatal("changed file reported up to date")
	}
	if st2.UpToDate("doc.xml", src+".missing") {
		t.Fatal("missing file reported up to date")
	}
	if st2.UpToDate("other.xml", src) {
		t.Fatal("unknown URI reported up to date")
	}
}

func TestDocStats(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenDir(dir, Options{})
	saveDoc(t, st, "bib.xml", bibXML)
	stats, ok := st.DocStats("bib.xml")
	if !ok {
		t.Fatal("DocStats miss")
	}
	want := xmltree.ComputeStats(mustParse(t, bibXML))
	if stats.Elements != want.Elements || stats.Nodes != want.Nodes || stats.MaxDepth != want.MaxDepth {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
	// Stats come straight off the manifest: no materialization happened.
	if st.Resident() != 0 {
		t.Fatal("DocStats materialized the document")
	}
}

func TestEncodeDecodeFileImage(t *testing.T) {
	doc := mustParse(t, bibXML)
	img, err := encodeSegmentFile("bib.xml", 42, doc, xmltree.ComputeStats(doc))
	if err != nil {
		t.Fatal(err)
	}
	sections, err := readSections(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 2 || sections[secMeta] == nil || sections[secTopo] == nil {
		t.Fatalf("image has %d sections, want exactly meta and topo", len(sections))
	}
	var meta segMeta
	if err := json.Unmarshal(sections[secMeta], &meta); err != nil {
		t.Fatal(err)
	}
	if meta.URI != "bib.xml" || meta.Generation != 42 {
		t.Fatalf("meta %+v", meta)
	}
	od, err := decodeSegmentFile(img)
	if err != nil {
		t.Fatal(err)
	}
	if od.Doc.Name != "bib.xml" {
		t.Fatalf("doc name %q", od.Doc.Name)
	}
	sameDocument(t, od, doc)
}

// sameDocument verifies a decoded segment against the document it was
// encoded from: same serialization, same index.
func sameDocument(t *testing.T, od *OpenDoc, want *xmltree.Document) {
	t.Helper()
	if xmltree.Serialize(od.Doc.Root, xmltree.WriteOptions{}) != xmltree.Serialize(want.Root, xmltree.WriteOptions{}) {
		t.Fatal("decoded document serializes differently from the original")
	}
	sameIndex(t, od.Index, index.Build(want))
}

// A file written before the derived sections were retired carries
// section ids 3–5 after meta and topo. The reader takes sections by id,
// so such a file opens to the same document and index.
func TestRetiredSectionsIgnored(t *testing.T) {
	doc := mustParse(t, bibXML)
	topo, err := storage.Encode(doc).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(segMeta{URI: "bib.xml", Generation: 1, Stats: xmltree.ComputeStats(doc)})
	if err != nil {
		t.Fatal(err)
	}
	secs := []section{{secMeta, meta}, {secTopo, topo}}
	for id := uint32(3); id <= 5; id++ {
		secs = append(secs, section{id, []byte("not read: derived columns, child offsets, postings")})
	}
	od, err := decodeSegmentFile(assemble(secs...))
	if err != nil {
		t.Fatalf("image with retired sections rejected: %v", err)
	}
	sameDocument(t, od, doc)
}

// The store reads a segment again when a document is first touched, so
// a file that changed after OpenDir verified it must be caught there: a
// typed error and a quarantine, whichever way it changed.
func TestFileChangedAfterOpenDir(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"emptied":   func(b []byte) []byte { return nil },
		"rewritten": func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
	}
	for name, change := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := OpenDir(dir, Options{})
			saveDoc(t, st, "bib.xml", bibXML)
			saveDoc(t, st, "ok.xml", `<ok><v>1</v></ok>`)
			st2, err := OpenDir(dir, Options{})
			if err != nil || len(st2.Warnings()) != 0 {
				t.Fatalf("reopen: %v %v", err, st2.Warnings())
			}
			path := filepath.Join(dir, segmentFileName("bib.xml"))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, change(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := st2.Document("bib.xml"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Document on a %s file: %v, want ErrCorrupt", name, err)
			}
			if st2.Has("bib.xml") || st2.Corrupt()["bib.xml"] == "" {
				t.Fatalf("%s file not quarantined: %v", name, st2.Corrupt())
			}
			if _, err := st2.Document("ok.xml"); err != nil {
				t.Fatalf("intact neighbour: %v", err)
			}
		})
	}
}

// A segment holds the topology once, in a form the storage package
// documents as smaller than the XML it encodes; the file adds only the
// statistics and 80 bytes of framing.
func TestSegmentNoLargerThanXML(t *testing.T) {
	for _, in := range xmlgen.Catalog {
		doc := xmlgen.MustGenerate(in.ID, xmlgen.Config{Seed: 1, TargetNodes: 5000})
		img, err := encodeSegmentFile(in.ID+".xml", 1, doc, xmltree.ComputeStats(doc))
		if err != nil {
			t.Fatal(err)
		}
		xml := xmltree.Serialize(doc.Root, xmltree.WriteOptions{})
		if len(img) > len(xml) {
			t.Errorf("%s: segment %d bytes, serialized XML %d bytes", in.ID, len(img), len(xml))
		}
		t.Logf("%s: segment/XML = %.2f", in.ID, float64(len(img))/float64(len(xml)))
	}
}
