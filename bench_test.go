// Micro-benchmarks of single operators and ablations of the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The paper's Table 3 grid and every end-to-end number are measured by
// the repository's benchmark (bash benchmark/run.sh), not here.
package blossomtree_test

import (
	"context"
	"sync"
	"testing"

	"blossomtree"
	"blossomtree/internal/core"
	"blossomtree/internal/flwor"
	"blossomtree/internal/index"
	"blossomtree/internal/join"
	"blossomtree/internal/nok"
	"blossomtree/internal/plan"
	"blossomtree/internal/storage"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

// benchNodes is the per-dataset element count used by the benchmarks:
// large enough that the asymptotic differences between the join
// algorithms show.
const benchNodes = 20000

// benchDataset is a generated document with its index and statistics.
type benchDataset struct {
	Doc   *xmltree.Document
	Index *index.TagIndex
	Stats xmltree.Stats
}

var (
	dsCache   = map[string]*benchDataset{}
	dsCacheMu sync.Mutex
)

func dataset(b *testing.B, id string) *benchDataset {
	b.Helper()
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if ds, ok := dsCache[id]; ok {
		return ds
	}
	doc, err := xmlgen.Generate(id, xmlgen.Config{Seed: 1, TargetNodes: benchNodes})
	if err != nil {
		b.Fatal(err)
	}
	ds := &benchDataset{Doc: doc, Index: index.Build(doc), Stats: xmltree.ComputeStats(doc)}
	dsCache[id] = ds
	return ds
}

// BenchmarkAblationMergedScans compares evaluating a multi-NoK query
// with one shared document traversal (the merged-NoK optimization of
// §4.2) against one sequential scan per NoK.
func BenchmarkAblationMergedScans(b *testing.B) {
	ds := dataset(b, "d3")
	eng := blossomtree.NewEngineNoIndexes()
	eng.LoadDocument("d3", ds.Doc)
	query := `//publisher[//mailing_address]//street_address`
	for _, merged := range []bool{false, true} {
		name := "separate-scans"
		if merged {
			name = "merged-scan"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := eng.QueryWith(query, blossomtree.Options{
					Strategy:   blossomtree.StrategyPipelined,
					MergeScans: merged,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Nodes()) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkAblationIndexAnchors compares pipelined-join plans whose NoK
// anchors come from tag indexes against pure sequential scans (the
// stream-context configuration of §5.2).
func BenchmarkAblationIndexAnchors(b *testing.B) {
	ds := dataset(b, "d5")
	q, err := core.FromPath(xpath.MustParse(`//phdthesis[//author][//school]`))
	if err != nil {
		b.Fatal(err)
	}
	configs := []struct {
		name string
		opts plan.Options
	}{
		{"seq-scan", plan.Options{Strategy: plan.Pipelined, Stats: ds.Stats}},
		{"index-anchors", plan.Options{Strategy: plan.Pipelined, Stats: ds.Stats, Index: ds.Index}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := plan.Build(q, ds.Doc, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicroNoKMatch measures the raw NoK pattern-matching operator:
// one full sequential scan of d2 with a three-vertex NoK tree.
func BenchmarkMicroNoKMatch(b *testing.B) {
	ds := dataset(b, "d2")
	q, err := core.FromPath(xpath.MustParse(`//address[street_address]/zip_code`))
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.Decompose(q.Tree)
	if err != nil {
		b.Fatal(err)
	}
	m, err := nok.NewMatcher(d.NoKs[1], q.Return)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := nok.Scan(m, ds.Doc); len(got) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkMicroTwigStack measures the holistic join alone on a
// three-level twig over d4, keeping one for-variable (the path's
// result) and keeping two (an outer and an inner binding), and on d4.Q2,
// a selective twig whose few matches let the join skip most of its
// streams (selective), and with a wildcard vertex, whose stream builds
// its label columns over every element (wildcard). It reports allocs/op.
func BenchmarkMicroTwigStack(b *testing.B) {
	ds := dataset(b, "d4")
	for _, c := range []struct {
		name, query string
		vars        []string
	}{
		{"one-var", `for $j in doc("d4")//VP[//NP]//JJ return $j`, []string{"j"}},
		{"two-var", `for $v in doc("d4")//VP[//NP], $j in $v//JJ return $j`, []string{"v", "j"}},
		{"selective", `for $n in doc("d4")//VP[VP]//VP[PP]/NP[PP]/NN return $n`, []string{"n"}},
		{"wildcard", `for $j in doc("d4")//VP/*/JJ return $j`, []string{"j"}},
	} {
		q, err := core.FromFLWOR(flwor.MustParse(c.query))
		if err != nil {
			b.Fatal(err)
		}
		root := q.Tree.Roots[0].Children[0]
		var keep []*core.Vertex
		for _, v := range c.vars {
			keep = append(keep, q.Vars[v])
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts, err := join.NewTwigStack(root, ds.Index)
				if err != nil {
					b.Fatal(err)
				}
				ts.Keep = keep
				if rows, err := ts.Run(); err != nil || len(rows) == 0 {
					b.Fatalf("%d rows, err %v", len(rows), err)
				}
			}
		})
	}
}

// BenchmarkPipelinedJoin measures the pipelined //-join with index
// anchors — the plan Auto builds on non-recursive documents — on the
// three input shapes its cost depends on: one outer instance carrying a
// wide group that every inner is tested against (wide-outer), a rare
// outer over a frequent inner where most postings are skipped
// (sparse-outer), and an inner that lies almost wholly inside the outers
// so there is nothing to skip (dense), and predicates whose inners
// nothing reads, which run as semi-joins: one witness per outer item, the
// rest of the item skipped (existential). It reports allocs/op
// (-benchmem) and the scanned nodes per operation, skipped postings
// included.
func BenchmarkPipelinedJoin(b *testing.B) {
	for _, c := range []struct{ name, ds, query string }{
		{"wide-outer", "d2", `//addresses//street_address//name_of_state`},
		{"sparse-outer", "d5", `//phdthesis//author`},
		{"dense", "d3", `//author//mailing_address//street_address`},
		{"existential", "d2", `//address[//street_address][//zip_code][//name_of_city]`},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds := dataset(b, c.ds)
			q, err := core.FromPath(xpath.MustParse(c.query))
			if err != nil {
				b.Fatal(err)
			}
			tmpl, err := plan.Build(q, ds.Doc, plan.Options{Strategy: plan.Pipelined, Index: ds.Index, Stats: ds.Stats})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var scanned int64
			for i := 0; i < b.N; i++ {
				p := tmpl.Fork(plan.Options{})
				ins, err := p.Execute()
				if err != nil {
					b.Fatal(err)
				}
				if ins.Len() == 0 {
					b.Fatal("no rows")
				}
				scanned += p.StatsTree().TotalScanned()
			}
			b.ReportMetric(float64(scanned)/float64(b.N), "scanned/op")
		})
	}
}

// BenchmarkMicroParse measures XML parsing throughput (bytes reported
// per op).
func BenchmarkMicroParse(b *testing.B) {
	ds := dataset(b, "d5")
	text := xmltree.Serialize(ds.Doc.Root, xmltree.WriteOptions{})
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroExample1 measures the paper's flagship FLWOR end to end
// on a generated bibliography.
func BenchmarkMicroExample1(b *testing.B) {
	doc := xmlgen.MustGenerate("d5", xmlgen.Config{Seed: 2, TargetNodes: 4000})
	eng := blossomtree.NewEngine()
	eng.LoadDocument("bib.xml", doc)
	query := `for $b1 in doc("bib.xml")//book, $b2 in doc("bib.xml")//book
		where $b1 << $b2 and deep-equal($b1/author, $b2/author)
		return <pair>{ $b1/title }{ $b2/title }</pair>`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroStorage measures the succinct segment encode/scan/decode
// path against tree construction from XML text.
func BenchmarkMicroStorage(b *testing.B) {
	ds := dataset(b, "d3")
	seg := storage.Encode(ds.Doc)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := storage.Encode(ds.Doc); s.Nodes() == 0 {
				b.Fatal("empty segment")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			events := 0
			if err := seg.Scan(func(storage.Event) bool { events++; return true }); err != nil {
				b.Fatal(err)
			}
			if events == 0 {
				b.Fatal("no events")
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := seg.Decode(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchThroughput measures query batches on one shared engine,
// serial vs across all cores — the scaling the concurrency-safe
// snapshot engine exists for. Speedup tracks core count; on a
// single-CPU machine the two arms should be within noise of each other.
func BenchmarkBatchThroughput(b *testing.B) {
	ds := dataset(b, "d3")
	eng := blossomtree.NewEngine()
	eng.LoadDocument("d3", ds.Doc)
	var batch []string
	for r := 0; r < 4; r++ {
		for _, q := range xmlgen.Suite("d3") {
			batch = append(batch, q.Text)
		}
	}
	for _, workers := range []int{1, -1} {
		name := "serial"
		if workers != 1 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := eng.QueryBatchContext(context.Background(), batch, blossomtree.Options{}, workers)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
