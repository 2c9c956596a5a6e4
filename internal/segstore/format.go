// Segment file format (one file per document, all integers
// little-endian):
//
//	[0,8)    magic "BSEGF1\n\x00"
//	[8,12)   u32 format version (currently 1)
//	[12,16)  u32 section count
//	[16,…)   section directory: count × { u32 id, u32 reserved,
//	         u64 offset, u64 length } (24 bytes each)
//	…        section payloads
//	[EOF-16) footer: "BSGE", u32 crc32c(file[0 : size-16]), u64 size
//
// Sections:
//
//	meta (1)     JSON: URI, segment generation, document statistics
//	topo (2)     the succinct topology bytecode — a verbatim
//	             storage.Segment (dedup tag table + preorder
//	             open/text/close bytecode)
//
// A file stores the document once. Region labels, the tag index and the
// column sets are computed from the decoded tree by the code every
// parsed document goes through (xmltree's builder, index.Build), so
// there is nothing in a file that could disagree with the topology. The
// directory is self-describing and the reader takes the two sections it
// knows by id: files that carry further sections (ids 3–5 held derived
// label columns, child offsets and postings) open unchanged.
//
// The whole-file crc32c (Castagnoli) in the footer is verified twice:
// streamed off disk by OpenDir before a segment is admitted, and over
// the bytes actually decoded when a document is first touched, so a
// torn, bit-flipped, truncated or rewritten file is quarantined instead
// of decoded.
package segstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"blossomtree/internal/index"
	"blossomtree/internal/storage"
	"blossomtree/internal/xmltree"
)

// ErrCorrupt is wrapped by every segment-file decode error; it also
// wraps storage.ErrCorrupt failures bubbling up from the topology
// bytecode.
var ErrCorrupt = errors.New("corrupt segment file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("segstore: "+format+": %w", append(args, ErrCorrupt)...)
}

var (
	fileMagic   = []byte("BSEGF1\n\x00")
	footerMagic = []byte("BSGE")
)

const (
	formatVersion = 1
	headerSize    = 16
	dirEntSize    = 24
	footerSize    = 16

	secMeta = 1
	secTopo = 2
)

// castagnoli is the CRC-32C table used for every file checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segMeta is the JSON meta section: everything the catalog needs
// without touching the document itself.
type segMeta struct {
	URI        string        `json:"uri"`
	Generation uint64        `json:"generation"`
	Stats      xmltree.Stats `json:"stats"`
}

// section is one directory entry and its payload.
type section struct {
	id      uint32
	payload []byte
}

// assemble lays the sections out behind a header and a directory and
// seals the image with the footer.
func assemble(secs ...section) []byte {
	size := headerSize + dirEntSize*len(secs)
	offsets := make([]int, len(secs))
	for i, sec := range secs {
		offsets[i] = size
		size += len(sec.payload)
	}
	size += footerSize

	out := make([]byte, size)
	copy(out, fileMagic)
	binary.LittleEndian.PutUint32(out[8:], formatVersion)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(secs)))
	for i, sec := range secs {
		d := out[headerSize+i*dirEntSize:]
		binary.LittleEndian.PutUint32(d, sec.id)
		binary.LittleEndian.PutUint64(d[8:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(d[16:], uint64(len(sec.payload)))
		copy(out[offsets[i]:], sec.payload)
	}
	seal(out)
	return out
}

// seal writes the footer — magic, checksum of everything before it,
// total size — into the last footerSize bytes of img.
func seal(img []byte) {
	foot := img[len(img)-footerSize:]
	copy(foot, footerMagic)
	binary.LittleEndian.PutUint32(foot[4:], crc32.Checksum(img[:len(img)-footerSize], castagnoli))
	binary.LittleEndian.PutUint64(foot[8:], uint64(len(img)))
}

// encodeSegmentFile renders one document as a self-contained segment
// file image: meta + topology bytecode, checksummed.
func encodeSegmentFile(uri string, generation uint64, doc *xmltree.Document, stats xmltree.Stats) ([]byte, error) {
	topo, err := storage.Encode(doc).MarshalBinary()
	if err != nil {
		return nil, err
	}
	meta, err := json.Marshal(segMeta{URI: uri, Generation: generation, Stats: stats})
	if err != nil {
		return nil, err
	}
	return assemble(section{secMeta, meta}, section{secTopo, topo}), nil
}

// readSections validates the framing of data — magic, version, footer
// magic and size field, directory bounds — and returns the sections by
// id. It does not verify the checksum; see verifyChecksum.
func readSections(data []byte) (map[uint32][]byte, error) {
	if len(data) < headerSize+footerSize || string(data[:8]) != string(fileMagic) {
		return nil, corruptf("bad magic or truncated header")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return nil, corruptf("unsupported format version %d", v)
	}
	foot := data[len(data)-footerSize:]
	if string(foot[:4]) != string(footerMagic) {
		return nil, corruptf("bad footer magic (torn write?)")
	}
	if sz := binary.LittleEndian.Uint64(foot[8:]); sz != uint64(len(data)) {
		return nil, corruptf("footer size %d != file size %d (truncated)", sz, len(data))
	}
	count := binary.LittleEndian.Uint32(data[12:])
	if uint64(count) > uint64(len(data)-headerSize-footerSize)/dirEntSize {
		return nil, corruptf("section count %d exceeds file", count)
	}
	sections := make(map[uint32][]byte, count)
	for i := 0; i < int(count); i++ {
		d := data[headerSize+i*dirEntSize:]
		id := binary.LittleEndian.Uint32(d)
		off := binary.LittleEndian.Uint64(d[8:])
		length := binary.LittleEndian.Uint64(d[16:])
		if off > uint64(len(data)-footerSize) || length > uint64(len(data)-footerSize)-off {
			return nil, corruptf("section %d out of bounds", id)
		}
		sections[id] = data[off : off+length : off+length]
	}
	return sections, nil
}

// verifyChecksum recomputes the footer CRC over data, the whole file
// image. OpenDir uses the streaming equivalent so it never holds a
// segment in memory to verify it.
func verifyChecksum(data []byte) error {
	if len(data) < footerSize {
		return corruptf("file shorter than footer")
	}
	foot := data[len(data)-footerSize:]
	want := binary.LittleEndian.Uint32(foot[4:])
	if got := crc32.Checksum(data[:len(data)-footerSize], castagnoli); got != want {
		return corruptf("checksum mismatch: file %08x, computed %08x", want, got)
	}
	return nil
}

// decodeSegmentFile turns a whole file image into an open document the
// way a parsed document becomes one: the topology is replayed through
// the tree builder, which assigns the region labels, and index.Build
// derives the tag index. Nothing of data is referenced afterwards.
func decodeSegmentFile(data []byte) (*OpenDoc, error) {
	sections, err := readSections(data)
	if err != nil {
		return nil, err
	}
	if err := verifyChecksum(data); err != nil {
		return nil, err
	}
	for _, id := range []uint32{secMeta, secTopo} {
		if _, ok := sections[id]; !ok {
			return nil, corruptf("missing section %d", id)
		}
	}
	var meta segMeta
	if err := json.Unmarshal(sections[secMeta], &meta); err != nil {
		return nil, corruptf("meta: %v", err)
	}
	topo, err := storage.View(sections[secTopo])
	if err != nil {
		return nil, corruptf("topology: %v", err)
	}
	doc, err := topo.Decode()
	if err != nil {
		return nil, corruptf("topology decode: %v", err)
	}
	doc.Name = meta.URI
	if meta.Stats.Bytes > 0 {
		doc.Bytes = meta.Stats.Bytes
	}
	stats := meta.Stats
	if stats.TagCounts == nil {
		stats.TagCounts = map[string]int{}
	}
	return &OpenDoc{Doc: doc, Index: index.Build(doc), Stats: stats}, nil
}
