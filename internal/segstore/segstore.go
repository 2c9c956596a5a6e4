// Package segstore implements the persistent document store: one
// self-contained segment file per document (see format.go for the
// layout) plus a manifest recording URIs, checksums, source
// fingerprints, and a monotonically increasing generation.
//
// The write path is crash-safe: segment files and the manifest are
// written to a temp file, fsync'd, and atomically renamed, so a crash
// mid-write leaves either the old state or the new state, never a torn
// file that gets served. OpenDir verifies every manifest'd segment's
// whole-file CRC-32C by streaming it off disk before the segment is
// admitted; corrupt or truncated segments are quarantined (Has reports
// false, so callers fall back to re-parsing the source) rather than
// decoded.
//
// The read path is lazy: OpenDir restores the catalog (URIs, stats,
// generation) without touching document bytes beyond the checksum
// stream; a document is read, checksummed again, decoded and indexed on
// first use — by the code a parsed document goes through — and evicted
// LRU when the resident-byte budget is exceeded. Nothing of the file
// stays referenced after the decode, and eviction only drops the
// store's reference to the decoded document, so the budget bounds what
// the store keeps warm, not what in-flight queries pin.
package segstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"blossomtree/internal/index"
	"blossomtree/internal/xmltree"
)

const (
	manifestName = "manifest.json"

	// DefaultByteBudget bounds the resident (materialized) set: an
	// estimate of the decoded trees' heap footprint.
	DefaultByteBudget = 256 << 20

	// nodeHeapCost approximates the heap bytes one decoded tree node
	// costs (struct, pointers, interning amortized). Used only for the
	// LRU accounting, so precision is unimportant.
	nodeHeapCost = 160
)

// Options configures a store.
type Options struct {
	// ByteBudget caps the estimated resident bytes of materialized
	// documents; least-recently-used documents are evicted past it.
	// Zero means DefaultByteBudget; negative means unlimited.
	ByteBudget int64
}

// SourceInfo fingerprints the file a segment was parsed from, so a
// reopened store can tell whether the segment is still current.
type SourceInfo struct {
	Path    string `json:"path"`
	Size    int64  `json:"size"`
	ModTime int64  `json:"mtime_unix_nano"`
}

// FileInfo builds a SourceInfo from a file on disk.
func FileInfo(path string) (SourceInfo, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return SourceInfo{}, err
	}
	return SourceInfo{Path: path, Size: fi.Size(), ModTime: fi.ModTime().UnixNano()}, nil
}

// manifestEntry is one segment's catalog record.
type manifestEntry struct {
	URI        string        `json:"uri"`
	File       string        `json:"file"` // basename within the store dir
	Size       int64         `json:"size"`
	CRC32C     uint32        `json:"crc32c"`
	Generation uint64        `json:"generation"` // store generation when written
	Stats      xmltree.Stats `json:"stats"`
	Source     *SourceInfo   `json:"source,omitempty"`
}

// manifest is the store's catalog file.
type manifest struct {
	Version    int             `json:"version"`
	Generation uint64          `json:"generation"`
	Segments   []manifestEntry `json:"segments"`
}

const manifestVersion = 1

// OpenDoc is one materialized document: the decoded labeled tree, its
// tag index, and the statistics recorded at save time.
type OpenDoc struct {
	Doc   *xmltree.Document
	Index *index.TagIndex
	Stats xmltree.Stats
}

// entry is one catalog slot.
type entry struct {
	man     manifestEntry
	corrupt string // non-empty: quarantine reason; never served

	// matMu serializes materialization of this entry; the store lock is
	// not held while decoding, so two URIs can materialize in parallel.
	matMu sync.Mutex
	mat   *OpenDoc

	lruEl *list.Element // position in Store.lru when materialized
	cost  int64
}

// Store is an open segment directory.
type Store struct {
	dir    string
	budget int64

	mu       sync.Mutex
	gen      uint64
	entries  map[string]*entry
	lru      *list.List // of *entry; front = most recent
	resident int64
	warnings []string
}

// OpenDir opens (creating if needed) a segment store rooted at dir.
// Every segment named by the manifest is checksum-verified by streaming
// it off disk; failures quarantine the segment (reported via Warnings
// and Corrupt) instead of failing the open. Leftover temp files from
// interrupted writes are removed.
func OpenDir(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	budget := opts.ByteBudget
	if budget == 0 {
		budget = DefaultByteBudget
	}
	st := &Store{
		dir:     dir,
		budget:  budget,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}

	// Sweep temp files from interrupted writes: they were never renamed
	// into place, so nothing references them.
	if names, err := filepath.Glob(filepath.Join(dir, "tmp-*")); err == nil {
		for _, n := range names {
			_ = os.Remove(n)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		var m manifest
		if jerr := json.Unmarshal(raw, &m); jerr != nil || m.Version != manifestVersion {
			// A corrupt manifest loses the catalog but must not serve
			// anything unverifiable: start empty and let callers re-parse.
			st.warnings = append(st.warnings,
				fmt.Sprintf("manifest unreadable (%v); starting empty", jerr))
		} else {
			st.gen = m.Generation
			for _, me := range m.Segments {
				e := &entry{man: me}
				if reason := st.verifyEntry(me); reason != "" {
					e.corrupt = reason
					st.warnings = append(st.warnings,
						fmt.Sprintf("segment %s (%s) quarantined: %s", me.File, me.URI, reason))
				}
				st.entries[me.URI] = e
			}
		}
	case isNotExist(err):
		// Fresh store.
	default:
		return nil, err
	}
	return st, nil
}

func isNotExist(err error) bool { return os.IsNotExist(err) || err == fs.ErrNotExist }

// verifyEntry streams the segment file and checks its size, footer, and
// whole-file CRC-32C against both the footer and the manifest. Returns
// a non-empty reason on failure.
func (st *Store) verifyEntry(me manifestEntry) string {
	path := filepath.Join(st.dir, me.File)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Sprintf("open: %v", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Sprintf("stat: %v", err)
	}
	if fi.Size() != me.Size {
		return fmt.Sprintf("size %d, manifest says %d (truncated?)", fi.Size(), me.Size)
	}
	if fi.Size() < headerSize+footerSize {
		return "shorter than header+footer"
	}
	h := crc32.New(castagnoli)
	if _, err := io.CopyN(h, f, fi.Size()-footerSize); err != nil {
		return fmt.Sprintf("read: %v", err)
	}
	var foot [footerSize]byte
	if _, err := io.ReadFull(f, foot[:]); err != nil {
		return fmt.Sprintf("footer read: %v", err)
	}
	if string(foot[:4]) != string(footerMagic) {
		return "bad footer magic (torn write?)"
	}
	if sz := binary.LittleEndian.Uint64(foot[8:]); sz != uint64(fi.Size()) {
		return fmt.Sprintf("footer size %d != file size %d", sz, fi.Size())
	}
	crc := binary.LittleEndian.Uint32(foot[4:])
	if got := h.Sum32(); got != crc {
		return fmt.Sprintf("checksum mismatch: footer %08x, computed %08x", crc, got)
	}
	if crc != me.CRC32C {
		return fmt.Sprintf("checksum %08x does not match manifest %08x", crc, me.CRC32C)
	}
	return ""
}

// segmentFileName derives a stable, filesystem-safe basename for a URI.
func segmentFileName(uri string) string {
	sum := sha256.Sum256([]byte(uri))
	return "seg-" + hex.EncodeToString(sum[:8]) + ".seg"
}

// atomicWrite writes data to dir/name via a temp file + fsync + rename,
// then fsyncs the directory so the rename itself is durable.
func atomicWrite(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Save persists one document as a segment file and records it in the
// manifest, bumping the store generation. An existing segment for the
// same URI is atomically replaced. source, when non-nil, fingerprints
// the file the document was parsed from (see UpToDate).
func (st *Store) Save(uri string, doc *xmltree.Document, stats xmltree.Stats, source *SourceInfo) error {
	st.mu.Lock()
	gen := st.gen + 1
	st.mu.Unlock()

	img, err := encodeSegmentFile(uri, gen, doc, stats)
	if err != nil {
		return err
	}
	file := segmentFileName(uri)
	if err := atomicWrite(st.dir, file, img); err != nil {
		return err
	}
	crc := binary.LittleEndian.Uint32(img[len(img)-footerSize+4:])

	st.mu.Lock()
	defer st.mu.Unlock()
	// Re-bump under the lock: concurrent saves each get a distinct
	// generation, and the manifest generation only moves forward.
	st.gen++
	me := manifestEntry{
		URI: uri, File: file, Size: int64(len(img)), CRC32C: crc,
		Generation: st.gen, Stats: stats, Source: source,
	}
	if old := st.entries[uri]; old != nil {
		st.dropLocked(old)
	}
	st.entries[uri] = &entry{man: me}
	return st.writeManifestLocked()
}

// writeManifestLocked rewrites the manifest atomically. Caller holds mu.
func (st *Store) writeManifestLocked() error {
	m := manifest{Version: manifestVersion, Generation: st.gen}
	uris := make([]string, 0, len(st.entries))
	for u := range st.entries {
		uris = append(uris, u)
	}
	sort.Strings(uris)
	for _, u := range uris {
		e := st.entries[u]
		if e.corrupt != "" {
			continue // quarantined segments drop out of the catalog
		}
		m.Segments = append(m.Segments, e.man)
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(st.dir, manifestName, raw)
}

// Has reports whether the store can serve uri (present and not
// quarantined).
func (st *Store) Has(uri string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entries[uri]
	return e != nil && e.corrupt == ""
}

// URIs returns the servable document URIs, sorted.
func (st *Store) URIs() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.entries))
	for u, e := range st.entries {
		if e.corrupt == "" {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// Corrupt returns the quarantined URIs and their reasons.
func (st *Store) Corrupt() map[string]string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]string)
	for u, e := range st.entries {
		if e.corrupt != "" {
			out[u] = e.corrupt
		}
	}
	return out
}

// Warnings returns open-time diagnostics (quarantines, manifest loss).
func (st *Store) Warnings() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.warnings...)
}

// Generation returns the store's current generation: it increases by
// one with every Save and survives restarts via the manifest, so
// (generation, uri-set) uniquely identifies the catalog state.
func (st *Store) Generation() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen
}

// DocStats returns the saved statistics for uri without materializing
// the document — the catalog is fully described by the manifest.
func (st *Store) DocStats(uri string) (xmltree.Stats, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entries[uri]
	if e == nil || e.corrupt != "" {
		return xmltree.Stats{}, false
	}
	return e.man.Stats, true
}

// UpToDate reports whether the stored segment for uri was built from
// path as it exists now (same path, size, and mtime). False when the
// segment is missing, quarantined, has no source fingerprint, or the
// file changed — callers should re-parse then.
func (st *Store) UpToDate(uri, path string) bool {
	st.mu.Lock()
	e := st.entries[uri]
	st.mu.Unlock()
	if e == nil || e.corrupt != "" || e.man.Source == nil {
		return false
	}
	now, err := FileInfo(path)
	if err != nil {
		return false
	}
	src := *e.man.Source
	return src.Path == now.Path && src.Size == now.Size && src.ModTime == now.ModTime
}

// Document materializes uri: reads and decodes the segment on first
// use. The result stays resident (LRU) until the byte budget evicts it;
// the returned OpenDoc remains valid regardless.
func (st *Store) Document(uri string) (OpenDoc, error) {
	st.mu.Lock()
	e := st.entries[uri]
	if e == nil {
		st.mu.Unlock()
		return OpenDoc{}, fmt.Errorf("segstore: no segment for %q", uri)
	}
	if e.corrupt != "" {
		st.mu.Unlock()
		return OpenDoc{}, fmt.Errorf("segstore: segment for %q quarantined: %s: %w", uri, e.corrupt, ErrCorrupt)
	}
	if e.mat != nil {
		st.touchLocked(e)
		mat := e.mat
		st.mu.Unlock()
		return *mat, nil
	}
	st.mu.Unlock()

	e.matMu.Lock()
	defer e.matMu.Unlock()
	// Re-check: another goroutine may have materialized while we waited.
	st.mu.Lock()
	if e.mat != nil {
		st.touchLocked(e)
		mat := e.mat
		st.mu.Unlock()
		return *mat, nil
	}
	st.mu.Unlock()

	mat, err := st.materialize(e)
	if err != nil {
		// Late-detected corruption (the file was truncated or rewritten
		// after OpenDir admitted it, or its checksummed bytes do not
		// decode) quarantines the segment like an open-time failure would.
		st.mu.Lock()
		e.corrupt = err.Error()
		st.warnings = append(st.warnings,
			fmt.Sprintf("segment %s (%s) quarantined at read: %v", e.man.File, e.man.URI, err))
		st.mu.Unlock()
		return OpenDoc{}, err
	}

	st.mu.Lock()
	e.mat = mat
	e.cost = int64(e.man.Stats.Nodes) * nodeHeapCost
	st.resident += e.cost
	st.touchLocked(e)
	st.evictLocked(e)
	st.mu.Unlock()
	return *mat, nil
}

// materialize reads one segment file and decodes the bytes it read.
// Called without st.mu held.
func (st *Store) materialize(e *entry) (*OpenDoc, error) {
	data, err := os.ReadFile(filepath.Join(st.dir, e.man.File))
	if err != nil {
		return nil, err
	}
	return decodeSegmentFile(data)
}

// touchLocked moves e to the LRU front. Caller holds mu.
func (st *Store) touchLocked(e *entry) {
	if e.lruEl != nil {
		st.lru.MoveToFront(e.lruEl)
	} else {
		e.lruEl = st.lru.PushFront(e)
	}
}

// evictLocked drops least-recently-used materialized entries until the
// resident estimate fits the budget, never evicting keep. Dropping only
// removes the store's reference; queries holding the document keep it
// alive. Caller holds mu.
func (st *Store) evictLocked(keep *entry) {
	if st.budget < 0 {
		return
	}
	for st.resident > st.budget {
		back := st.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		if e == keep {
			// The newest document alone exceeds the budget; keep it —
			// evicting what we are about to return would thrash.
			return
		}
		st.dropLocked(e)
	}
}

// dropLocked forgets e's materialization. Caller holds mu.
func (st *Store) dropLocked(e *entry) {
	if e.lruEl != nil {
		st.lru.Remove(e.lruEl)
		e.lruEl = nil
	}
	if e.mat != nil {
		e.mat = nil
		st.resident -= e.cost
		e.cost = 0
	}
}

// Resident returns the estimated bytes of currently materialized
// documents (for tests and diagnostics).
func (st *Store) Resident() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.resident
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Close drops all materializations; the store must not be used
// afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.entries {
		st.dropLocked(e)
	}
	return nil
}

// String summarizes the catalog.
func (st *Store) String() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	n, bad := 0, 0
	var bytes int64
	for _, e := range st.entries {
		if e.corrupt != "" {
			bad++
			continue
		}
		n++
		bytes += e.man.Size
	}
	s := fmt.Sprintf("segstore %s: gen %d, %d segment(s), %s", st.dir, st.gen, n, xmltree.FormatBytes(bytes))
	if bad > 0 {
		s += fmt.Sprintf(", %d quarantined", bad)
	}
	return s
}
