package segstore

import (
	"errors"
	"testing"

	"blossomtree/internal/xmltree"
)

// reseal rewrites the footer of a file image so that its size field and
// checksum match the bytes before it. Without it almost every mutated
// input dies at the checksum and the decoder behind it is never reached.
func reseal(data []byte) []byte {
	if len(data) < footerSize {
		return data
	}
	out := append([]byte(nil), data...)
	seal(out)
	return out
}

// FuzzSegmentFile is the trust boundary of the store as a fuzz target:
// arbitrary bytes offered as a whole segment file, as found and with a
// matching footer, either decode to a document that survives a
// re-encode unchanged, or fail with an error wrapping ErrCorrupt. No
// input may panic.
func FuzzSegmentFile(f *testing.F) {
	for _, src := range []string{bibXML, `<a/>`, `<r><p id="1">x<q/>y</p><p id="2"><q><q>deep</q></q></p></r>`} {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			f.Fatal(err)
		}
		img, err := encodeSegmentFile("seed.xml", 1, doc, xmltree.ComputeStats(doc))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		for n := 0; n < len(img); n += 7 {
			f.Add(img[:n])
			flipped := append([]byte(nil), img...)
			flipped[n] ^= 1 << (n % 8)
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, reseal(data)} {
			od, err := decodeSegmentFile(img)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			again, err := encodeSegmentFile(od.Doc.Name, 1, od.Doc, od.Stats)
			if err != nil {
				t.Fatalf("accepted document does not re-encode: %v", err)
			}
			od2, err := decodeSegmentFile(again)
			if err != nil {
				t.Fatalf("re-encoded document rejected: %v", err)
			}
			if xmltree.Serialize(od2.Doc.Root, xmltree.WriteOptions{}) != xmltree.Serialize(od.Doc.Root, xmltree.WriteOptions{}) {
				t.Fatal("accepted document changes across a re-encode")
			}
		}
	})
}
