package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"blossomtree"
)

// golden.json pins, for one seed at the default scale, the sha256 of every
// generated document and the oracle's answers per class. It is what
// notices the generator, the oracle or both moving under the benchmark;
// regenerate it with `go test -run TestGolden -update` in a PR that
// changes only the benchmark.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed      int64                     `json:"seed"`
	Scale     float64                   `json:"scale"`
	Workloads map[string]goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	Documents map[string]string       `json:"documents"` // URI → sha256 of the XML text
	Classes   map[string]goldenAnswer `json:"classes"`
}

// goldenAnswer folds the answers of a class's operations, in generation
// order: for the paper and FLWOR workloads a class is one query, so this
// is its (count, digest); compile-cold folds 512 queries per template.
type goldenAnswer struct {
	Ops    int    `json:"ops"`
	Count  int    `json:"count"`
	Digest string `json:"digest"`
}

// loadEngine parses every document of the workload into a fresh engine,
// as a developer embedding the engine would.
func loadEngine(w *workload) (*blossomtree.Engine, error) {
	e := blossomtree.NewEngine()
	for _, d := range w.Docs {
		if err := e.LoadString(d.URI, d.XML); err != nil {
			return nil, fmt.Errorf("load %s: %w", d.URI, err)
		}
	}
	return e, nil
}

// fillExpected computes every operation's expected answer with the
// navigational evaluator, the oracle the repository's differential suites
// compare every strategy against.
func fillExpected(w *workload) error {
	e, err := loadEngine(w)
	if err != nil {
		return err
	}
	for i := range w.Ops {
		o := &w.Ops[i]
		res, err := e.QueryWith(o.Query, blossomtree.Options{Strategy: blossomtree.StrategyNavigational})
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", o.Query, err)
		}
		o.Count = res.Len()
		o.Digest = digest(res.XML())
	}
	return nil
}

// answers folds the workload's expected answers per class.
func (w *workload) answers() map[string]goldenAnswer {
	folded := make([]strings.Builder, len(w.Classes))
	out := map[string]goldenAnswer{}
	for _, o := range w.Ops {
		a := out[w.Classes[o.Class]]
		a.Ops++
		a.Count += o.Count
		out[w.Classes[o.Class]] = a
		fmt.Fprintf(&folded[o.Class], "%d:%016x;", o.Count, o.Digest)
	}
	for ci, c := range w.Classes {
		a := out[c]
		a.Digest = fmt.Sprintf("%016x", digest(folded[ci].String()))
		out[c] = a
	}
	return out
}

func (w *workload) golden() goldenWorkload {
	g := goldenWorkload{Documents: map[string]string{}, Classes: w.answers()}
	for _, d := range w.Docs {
		g.Documents[d.URI] = d.SHA256
	}
	return g
}

// checkGolden compares the generated corpus and the oracle's answers with
// golden.json when the run uses the pinned seed and scale. A corpus
// mismatch is an error; every operation of a class whose answers moved
// counts as failed.
func checkGolden(w *workload, seed int64, scale float64) (failed int, err error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return 0, fmt.Errorf("golden.json: %w", err)
	}
	if seed != g.Seed || scale != g.Scale {
		return 0, nil
	}
	want, ok := g.Workloads[w.Name]
	if !ok {
		return 0, fmt.Errorf("golden.json has no workload %q: re-baseline in a benchmark PR", w.Name)
	}
	for _, d := range w.Docs {
		if want.Documents[d.URI] != d.SHA256 {
			return 0, fmt.Errorf("corpus digest mismatch: %s of %s at seed %d is %s, golden.json has %s: re-baseline in a benchmark PR",
				d.URI, w.Name, seed, d.SHA256, want.Documents[d.URI])
		}
	}
	for class, got := range w.answers() {
		if want.Classes[class] != got {
			failed += got.Ops
		}
	}
	return failed, nil
}
