package blossomtree

import (
	"context"

	"blossomtree/internal/shard"
)

// Sharded serving: NewEngineSharded splits the document catalog across
// N in-process engine shards behind a consistent-hash router. Loading
// assigns each document to its ring-owned shard; single-document
// queries route to the owning shard; QueryAllDocumentsContext and
// QueryAllGatheredContext scatter across every populated shard under
// per-shard governors derived from the request budget and gather the
// per-shard results through an ordered merge. A shard whose sub-query
// fails is retried once with jittered backoff and then degraded out of
// the gather — the result stays correct but partial, and
// Result.Degraded reports which shards are missing.

// NewEngineSharded returns an engine whose catalog is split across n
// consistent-hash shards (n < 1 is clamped to 1). Tag indexes are
// enabled, as in NewEngine.
func NewEngineSharded(n int) *Engine {
	return &Engine{b: shard.New(shard.Config{Shards: n, BuildIndexes: true})}
}

// ShardCount returns the number of shards (1 for unsharded engines).
func (e *Engine) ShardCount() int { return e.b.Shards() }

// DocumentShard returns the shard index owning uri (0 on unsharded
// engines) and whether the URI is registered.
func (e *Engine) DocumentShard(uri string) (int, bool) { return e.b.ShardOf(uri) }

// Degraded describes a partial scatter-gather result: the shards whose
// sub-queries failed even after the retry, and their errors.
type Degraded struct {
	// FailedShards lists the failed shard indexes, ascending.
	FailedShards []int
	// Errors holds one message per failed shard, aligned with
	// FailedShards.
	Errors []string
}

// Degraded reports whether this result is a partial scatter-gather
// view: nil for complete results, otherwise the failed shard list. Only
// results of QueryAllGatheredContext on a sharded engine can degrade.
func (r *Result) Degraded() *Degraded {
	d := r.inner.Degraded
	if d == nil {
		return nil
	}
	return &Degraded{
		FailedShards: append([]int(nil), d.FailedShards...),
		Errors:       append([]string(nil), d.Errors...),
	}
}

// QueryAllGatheredContext evaluates one query against every loaded
// document, under a context shared by every shard sub-query and
// per-document evaluation, and gathers the per-document node and row
// results into a single Result in URI order — the merged form of
// QueryAllDocumentsContext. Constructed outputs stay per-document, so
// the merged Result carries rows and nodes but no constructed XML
// document. Documents whose evaluation failed are omitted from the
// merge.
//
// On a sharded engine the evaluation scatters across the shards
// (Options.Shards bounds the fan-out; workers bounds each shard's
// internal per-document fan-out); a shard lost after one retry degrades
// the result instead of failing it — check Result.Degraded.
func (e *Engine) QueryAllGatheredContext(ctx context.Context, src string, opts Options, workers int) (*Result, error) {
	docs, deg, err := e.evalAllDocs(ctx, src, opts, workers)
	if err != nil {
		return nil, err
	}
	return newResult(shard.MergeResults(docs, deg)), nil
}
