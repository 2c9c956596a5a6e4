package xmltree

import (
	"math/rand"
	"testing"
)

// FuzzXMLParse feeds arbitrary text to the parser. No input may panic;
// every document it accepts must have consistent labels and links and
// re-parse, once serialized, to a deep-equal tree. One seed is a
// generated document past the single nodes, so the seed run alone
// reaches the Builder's block path and its trimmed tail.
func FuzzXMLParse(f *testing.F) {
	f.Add(bibXML)
	f.Add(`<a id="1"><b>hello &amp; goodbye</b><c/><d>x<e/>y</d></a>`)
	f.Add(`<?xml version="1.0"?><!-- c --><r xmlns:x="u"><x:a x:k="v">t<![CDATA[<z>]]></x:a></r>`)
	f.Add(Serialize(sizedDoc(rand.New(rand.NewSource(1)), 1300).Root, WriteOptions{}))
	f.Fuzz(func(t *testing.T, s string) {
		doc, err := ParseString(s)
		if err != nil {
			return
		}
		if err := checkTree(doc); err != nil {
			t.Fatalf("accepted document breaks an invariant: %v", err)
		}
		out := Serialize(doc.Root, WriteOptions{})
		again, err := ParseString(out)
		if err != nil {
			t.Fatalf("serialized document does not re-parse: %v\n%s", err, out)
		}
		if !DeepEqual(doc.Root, again.Root) {
			t.Fatalf("re-parsed document differs:\n%s\nvs\n%s", out, Serialize(again.Root, WriteOptions{}))
		}
	})
}
