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

// BenchmarkMicroNoKMatch measures the raw NoK pattern-matching operator:
// one NoK scan of d2's address postings with a three-vertex NoK tree.
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
		if got := join.Drain(nok.NewIterator(m, ds.Index.Stream(m.RootTest()))); len(got) == 0 {
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

// BenchmarkBatchThroughput measures the engine's concurrent scaling:
// GOMAXPROCS goroutines run the d3 suite's queries through Query on one
// shared engine, one query per iteration. Run with -cpu 1,2,… to see
// ns/op fall with core count — the scaling the concurrency-safe
// snapshot engine exists for; on a single-CPU machine the arms should
// be within noise of each other.
func BenchmarkBatchThroughput(b *testing.B) {
	ds := dataset(b, "d3")
	eng := blossomtree.NewEngine()
	eng.LoadDocument("d3", ds.Doc)
	var queries []string
	for _, q := range xmlgen.Suite("d3") {
		queries = append(queries, q.Text)
	}
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := eng.Query(queries[i%len(queries)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// flworShapes are the six FLWOR shapes of the benchmark's
// flwor-construct workload, over a DBLP-like document (d5) and an
// address document (d2).
var flworShapes = []struct{ name, query string }{
	{"F1.where-ctor", `for $t in doc("d5")//phdthesis where exists($t/school) return <thesis>{ $t/author, $t/school }</thesis>`},
	{"F2.order-by", `for $p in doc("d5")//proceedings order by $p/title return <p>{ $p/title, $p/year }</p>`},
	{"F3.let", `for $a in doc("d2")//address let $c := $a//name_of_city where exists($a/zip_code) return <addr>{ $c, $a/zip_code }</addr>`},
	{"F4.self-join", `for $p in doc("d5")//proceedings, $q in doc("d5")//proceedings where $p << $q and $p/publisher = $q/publisher and $p/year >= 1997 and $q/year >= 1997 return <pair>{ $p/title, $q/title }</pair>`},
	{"F5.bulk-ctor", `for $a in doc("d5")//article return <a>{ $a/title, $a/year }</a>`},
	{"F6.at", `for $a at $i in doc("d2")//address where $i < 100 return <n>{ $a/zip_code }</n>`},
}

// flworEngine loads d5 and d2 at 1/40 of the paper's sizes (seed 1).
func flworEngine(tb testing.TB) *blossomtree.Engine {
	tb.Helper()
	eng := blossomtree.NewEngine()
	for _, id := range []string{"d5", "d2"} {
		doc, err := xmlgen.Generate(id, xmlgen.Config{Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		eng.LoadDocument(id, doc)
	}
	return eng
}

// BenchmarkFLWORConstruct evaluates the six FLWOR shapes under Auto,
// warm, and serializes each answer: one pass per op (allocs/op is the
// pass's objects), then each shape alone.
func BenchmarkFLWORConstruct(b *testing.B) {
	eng := flworEngine(b)
	run := func(b *testing.B, query string) {
		res, err := eng.Query(query)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 || res.XML() == "" {
			b.Fatalf("%s: empty answer", query)
		}
	}
	for _, s := range flworShapes {
		run(b, s.query) // compile and take the replan decision
		run(b, s.query)
	}
	b.Run("pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range flworShapes {
				run(b, s.query)
			}
		}
	})
	for _, s := range flworShapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, s.query)
			}
		})
	}
}

// BenchmarkGatheredConstruct runs the constructing FLWOR shapes F1 and
// F5 over every loaded document (d5 and d2) through the gathered
// fan-out, warm, and serializes the gathered answer.
func BenchmarkGatheredConstruct(b *testing.B) {
	eng := flworEngine(b)
	for _, s := range []struct{ name, query string }{flworShapes[0], flworShapes[4]} {
		run := func(b *testing.B) {
			res, err := eng.QueryAllGatheredContext(context.Background(), s.query, blossomtree.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Len() == 0 || res.XML() == "" {
				b.Fatalf("%s: empty answer", s.query)
			}
		}
		run(b) // compile and take the replan decision
		run(b)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b)
			}
		})
	}
}
