package blossomtree

import (
	"blossomtree/internal/segstore"
	"blossomtree/internal/xmltree"
)

// Persistent segment store: OpenStore opens (or creates) a directory of
// segment files — one self-contained, checksummed file per document,
// holding its statistics and its succinct topology bytecode, the
// document stored once — plus a manifest with a monotonically
// increasing generation. AttachStore registers the store's documents
// with an engine lazily: reopening a catalog costs milliseconds
// (manifest read + checksum streams), and a document is only read,
// decoded and indexed — by the code a parsed document goes through —
// when a query first touches it. Writes are crash-safe (temp file +
// fsync + atomic rename); a torn or bit-flipped segment is detected by
// checksum on open, and again over the bytes decoded on first touch,
// and the store quarantines it, so callers fall back to re-parsing the
// source.

// StoreOptions configures OpenStoreOptions.
type StoreOptions struct {
	// ByteBudget caps the estimated resident bytes of materialized
	// documents; least-recently-used documents are evicted past it.
	// Zero means the default (256 MiB); negative means unlimited.
	ByteBudget int64
}

// SegmentStore is an open persistent segment directory.
type SegmentStore struct {
	st *segstore.Store
}

// OpenStore opens (creating if needed) a segment store with default
// options.
func OpenStore(dir string) (*SegmentStore, error) {
	return OpenStoreOptions(dir, StoreOptions{})
}

// OpenStoreOptions opens (creating if needed) a segment store. Corrupt
// or truncated segments do not fail the open: they are quarantined and
// reported by Warnings/Corrupt.
func OpenStoreOptions(dir string, opts StoreOptions) (*SegmentStore, error) {
	st, err := segstore.OpenDir(dir, segstore.Options{ByteBudget: opts.ByteBudget})
	if err != nil {
		return nil, err
	}
	return &SegmentStore{st: st}, nil
}

// URIs returns the servable document URIs, sorted.
func (s *SegmentStore) URIs() []string { return s.st.URIs() }

// Has reports whether the store can serve uri.
func (s *SegmentStore) Has(uri string) bool { return s.st.Has(uri) }

// Generation returns the store generation: +1 per persisted document,
// durable across restarts via the manifest.
func (s *SegmentStore) Generation() uint64 { return s.st.Generation() }

// Warnings returns open-time diagnostics: quarantined segments,
// manifest recovery.
func (s *SegmentStore) Warnings() []string { return s.st.Warnings() }

// Corrupt returns quarantined URIs and the reason each was rejected.
func (s *SegmentStore) Corrupt() map[string]string { return s.st.Corrupt() }

// UpToDate reports whether the stored segment for uri was persisted
// from path as it exists now (same path, size, mtime) — callers skip
// re-parsing exactly when this is true.
func (s *SegmentStore) UpToDate(uri, path string) bool { return s.st.UpToDate(uri, path) }

// Close releases resident documents. In-flight queries keep the
// documents they resolved.
func (s *SegmentStore) Close() error { return s.st.Close() }

// String summarizes the catalog.
func (s *SegmentStore) String() string { return s.st.String() }

// AttachStore registers every servable document of the store with the
// engine. Nothing is parsed or decoded up front: documents materialize
// (read + decode, LRU-cached) when a query first resolves them.
// Documents already loaded under the same URI shadow the store's copy.
func (e *Engine) AttachStore(s *SegmentStore) { e.x.AttachStore(s.st) }

// PersistDocument saves the loaded document uri into the store as a
// segment file (crash-safe: temp file + fsync + atomic rename), bumping
// the store generation.
func (e *Engine) PersistDocument(s *SegmentStore, uri string) error {
	return e.persist(s, uri, nil)
}

// PersistFile is PersistDocument recording the source file's
// fingerprint (path, size, mtime), enabling SegmentStore.UpToDate to
// skip re-parsing unchanged files on later runs.
func (e *Engine) PersistFile(s *SegmentStore, uri, path string) error {
	info, err := segstore.FileInfo(path)
	if err != nil {
		return err
	}
	return e.persist(s, uri, &info)
}

func (e *Engine) persist(s *SegmentStore, uri string, info *segstore.SourceInfo) error {
	doc, err := e.resolve(uri)
	if err != nil {
		return err
	}
	return s.st.Save(uri, doc, xmltree.ComputeStats(doc), info)
}
