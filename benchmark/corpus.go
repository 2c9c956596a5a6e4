package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

// defaultScale is the fraction of the paper's Table 1 node counts the
// corpus is generated at. It is the size at which warm-up past the
// feedback trigger (40 executions of every query), five cold set-ups and
// the measured window of one run fit in the run-time cap of BENCHMARK.json.
const defaultScale = 0.025

// httpScaleFactor shrinks the serve-http corpus relative to the embedded
// workloads: it loads all five documents and every warm-up execution is
// an HTTP round trip that serializes the result twice.
const httpScaleFactor = 0.4

// compileColdElements is the size of compile-cold's one document, at every
// scale. On 2000 elements executing a plan took 70 % of Engine.Query and
// compiling it 8 %; on 200 the per-query work — parse, BlossomTree build,
// plan build and the executor's fixed cost per evaluation — is what the
// workload measures, and the document still has some 36 distinct tags.
const compileColdElements = 200

// compileColdPerTemplate distinct texts per template: 8 × 512 = 4096
// distinct queries, eight times the 512-entry plan cache, so cycling
// through them never hits it.
const compileColdPerTemplate = 512

var workloadNames = []string{"paper-recursive", "paper-flat", "compile-cold", "flwor-construct", "serve-http"}

// paperQueries pins the Appendix-A suites (as adapted to the synthetic
// generators in internal/bench/suite.go). They are copied, not imported,
// so that a later change to the harness cannot move this ruler.
var paperQueries = map[string][]string{
	"d1": {
		`//a//b4`,
		`//a[//b2][//b1]//b3`,
		`//a//c2/b1//c3`,
		`//a//c2[//b1]/b1//c3`,
		`//b1//c2//b1`,
		`//b1//c2[//c3]//b1`,
	},
	"d2": {
		`//addresses//street_address//name_of_state`,
		`//addresses[//zip_code][//country_id]`,
		`//addresses//street_address`,
		`//address[//name_of_state][//zip_code]//street_address`,
		`//address[//street_address]`,
		`//address[//street_address][//zip_code][//name_of_city]`,
	},
	"d3": {
		`//item/attributes//length`,
		`//item/title[//author/contact_information//street_address]`,
		`//publisher//street_information//street_address`,
		`//publisher[//mailing_address]//street_address`,
		`//author//mailing_address//street_address`,
		`//author[date_of_birth][//last_name]//street_address`,
	},
	"d4": {
		`//VP//VP/NP//PP/PP`,
		`//VP[VP]//VP[PP]/NP[PP]/NN`,
		`//VP/VP/NP//NN`,
		`//VP[VP]//VP/NP//NN`,
		`//VP//VP/NP//PP/IN`,
		`//VP[//NP][//VB]//JJ`,
	},
	"d5": {
		`//phdthesis//author`,
		`//phdthesis[//author][//school]`,
		`//www[//url]`,
		`//www[//editor][//title][//year]`,
		`//proceedings[//editor]`,
		`//proceedings[//editor][//year][//url]`,
	},
}

// flworQueries are the six FLWOR shapes of flwor-construct and serve-http.
// %[1]s is the DBLP-like document, %[2]s the address document. The
// self-join narrows both sides by year: its cost follows the product of the
// two sides' sizes, and for a given cost two sides of some 120 proceedings
// vary least from seed to seed (13 %, against 25 % for one side of 18).
var flworQueries = []struct{ class, text string }{
	{"F1.where-ctor", `for $t in doc("%[1]s")//phdthesis where exists($t/school) return <thesis>{ $t/author, $t/school }</thesis>`},
	{"F2.order-by", `for $p in doc("%[1]s")//proceedings order by $p/title return <p>{ $p/title, $p/year }</p>`},
	{"F3.let", `for $a in doc("%[2]s")//address let $c := $a//name_of_city where exists($a/zip_code) return <addr>{ $c, $a/zip_code }</addr>`},
	{"F4.self-join", `for $p in doc("%[1]s")//proceedings, $q in doc("%[1]s")//proceedings where $p << $q and $p/publisher = $q/publisher and $p/year >= 1997 and $q/year >= 1997 return <pair>{ $p/title, $q/title }</pair>`},
	{"F5.bulk-ctor", `for $a in doc("%[1]s")//article return <a>{ $a/title, $a/year }</a>`},
	{"F6.at", `for $a at $i in doc("%[2]s")//address where $i < 100 return <n>{ $a/zip_code }</n>`},
}

// compileTemplates are Table 2's six shapes plus two FLWOR shapes; each %s
// takes a tag of the document's own alphabet.
var compileTemplates = []struct {
	class, text string
	tags        int
}{
	{"hc", `doc("%s")//%s/%s//%s/%s//%s`, 5},
	{"hb", `doc("%s")//%s//%s[//%s/%s]//%s/%s`, 6},
	{"mc", `doc("%s")//%s//%s//%s`, 3},
	{"mb", `doc("%s")//%s/%s[//%s][//%s][//%s]`, 5},
	{"lc", `doc("%s")//%s//%s`, 2},
	{"lb", `doc("%s")//%s[//%s][//%s]//%s`, 4},
	{"flwor-where", `for $x in doc("%s")//%s where exists($x/%s) return <r>{ $x/%s }</r>`, 3},
	{"flwor-let", `for $x in doc("%s")//%s let $y := $x//%s order by $x/%s return <r>{ $y }</r>`, 3},
}

// document is one generated input, as the system receives it: XML text.
type document struct {
	URI      string
	XML      string
	SHA256   string
	Elements int
	tags     []string
}

// op is one distinct operation of a workload with its expected answer.
type op struct {
	Class  int // index into workload.Classes
	Doc    string
	Query  string
	FLWOR  bool
	Count  int    // expected result count
	Digest uint64 // expected FNV-1a of the serialized result
}

// workload is a generated set of inputs: documents, distinct operations
// and one shuffled pass over them that the clients cycle through.
type workload struct {
	Name      string
	Docs      []document
	Classes   []string
	Ops       []op
	Schedule  []int // indexes into Ops
	Serialize bool  // every operation serializes and digests its result
	HTTP      bool
	// WarmPasses overrides the per-class warm-up rule with a pass count
	// (compile-cold: its plans never come from the cache, so the feedback
	// trigger cannot fire and three passes settle heap and caches).
	WarmPasses int
}

func genDocument(dataset string, nodes int, seed int64) (document, error) {
	doc, err := xmlgen.Generate(dataset, xmlgen.Config{Seed: seed, TargetNodes: nodes})
	if err != nil {
		return document{}, err
	}
	xml := xmltree.Serialize(doc.Root, xmltree.WriteOptions{})
	sum := sha256.Sum256([]byte(xml))
	st := xmltree.ComputeStats(doc)
	tags := make([]string, 0, len(st.TagCounts))
	for t := range st.TagCounts {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return document{
		URI:      dataset + ".xml",
		XML:      xml,
		SHA256:   hex.EncodeToString(sum[:]),
		Elements: st.Elements,
		tags:     tags,
	}, nil
}

// paperNodes is the dataset's Table 1 node count at the scale, with a floor
// that keeps every tag of the query suites present.
func paperNodes(dataset string, scale float64) int {
	info, _ := xmlgen.LookupInfo(dataset)
	return max(int(float64(info.PaperNodes)*scale), 200)
}

// buildWorkload generates the named workload's inputs from seed: the seed
// drives xmlgen, template instantiation and the shuffle. Expected answers
// are filled in later, by the oracle.
func buildWorkload(name string, seed int64, scale float64) (*workload, error) {
	w := &workload{Name: name}
	var weights []int // per operation: repeats per pass
	addDocs := func(scale float64, datasets ...string) error {
		for _, ds := range datasets {
			d, err := genDocument(ds, paperNodes(ds, scale), seed)
			if err != nil {
				return err
			}
			w.Docs = append(w.Docs, d)
		}
		return nil
	}
	addOp := func(class, doc, query string, flwor bool, weight int) {
		ci := -1
		for i, c := range w.Classes {
			if c == class {
				ci = i
			}
		}
		if ci < 0 {
			ci = len(w.Classes)
			w.Classes = append(w.Classes, class)
		}
		weights = append(weights, weight)
		w.Ops = append(w.Ops, op{Class: ci, Doc: doc, Query: query, FLWOR: flwor})
	}
	addPaper := func(weight int, datasets ...string) {
		for _, ds := range datasets {
			for i, q := range paperQueries[ds] {
				uri := ds + ".xml"
				addOp(fmt.Sprintf("%s.Q%d", ds, i+1), uri, fmt.Sprintf(`doc("%s")%s`, uri, q), false, weight)
			}
		}
	}
	addFLWOR := func(weight int) {
		for _, f := range flworQueries {
			q := fmt.Sprintf(f.text, "d5.xml", "d2.xml")
			doc := "d5.xml"
			if !strings.Contains(q, doc) {
				doc = "d2.xml"
			}
			addOp(f.class, doc, q, true, weight)
		}
	}

	var err error
	switch name {
	case "paper-recursive":
		err = addDocs(scale, "d1", "d4")
		addPaper(1, "d1", "d4")
	case "paper-flat":
		err = addDocs(scale, "d2", "d3", "d5")
		addPaper(1, "d2", "d3", "d5")
	case "compile-cold":
		var d document
		d, err = genDocument("d3", compileColdElements, seed)
		if err != nil {
			break
		}
		if len(d.tags)*len(d.tags) < compileColdPerTemplate {
			return nil, fmt.Errorf("compile-cold: %d tags cannot make %d distinct two-tag queries", len(d.tags), compileColdPerTemplate)
		}
		w.Docs = append(w.Docs, d)
		w.WarmPasses = 3
		r := rand.New(rand.NewSource(seed*7919 + 17))
		for _, t := range compileTemplates {
			seen := map[string]bool{}
			for len(seen) < compileColdPerTemplate {
				args := []any{d.URI}
				for i := 0; i < t.tags; i++ {
					args = append(args, d.tags[r.Intn(len(d.tags))])
				}
				q := fmt.Sprintf(t.text, args...)
				if seen[q] {
					continue
				}
				seen[q] = true
				addOp(t.class, d.URI, q, strings.HasPrefix(q, "for "), 1)
			}
		}
	case "flwor-construct":
		w.Serialize = true
		err = addDocs(scale, "d5", "d2")
		addFLWOR(1)
	case "serve-http":
		w.Serialize = true
		w.HTTP = true
		err = addDocs(scale*httpScaleFactor, "d1", "d2", "d3", "d4", "d5")
		// 30 paper queries × 7 and 6 FLWOR queries × 15 per pass: a 70/30 mix.
		addPaper(7, "d1", "d2", "d3", "d4", "d5")
		addFLWOR(15)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	for i := range w.Ops {
		for k := 0; k < weights[i]; k++ {
			w.Schedule = append(w.Schedule, i)
		}
	}
	r := rand.New(rand.NewSource(seed*104729 + 3))
	r.Shuffle(len(w.Schedule), func(i, j int) { w.Schedule[i], w.Schedule[j] = w.Schedule[j], w.Schedule[i] })
	return w, nil
}

// scheduleHash identifies the generated inputs and their order.
func (w *workload) scheduleHash() string {
	h := sha256.New()
	for _, d := range w.Docs {
		fmt.Fprintf(h, "%s %s\n", d.URI, d.SHA256)
	}
	for _, i := range w.Schedule {
		o := w.Ops[i]
		fmt.Fprintf(h, "%s\x00%s\x00%s\n", w.Classes[o.Class], o.Doc, o.Query)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *workload) elements() int {
	n := 0
	for _, d := range w.Docs {
		n += d.Elements
	}
	return n
}

func (w *workload) xmlBytes() int {
	n := 0
	for _, d := range w.Docs {
		n += len(d.XML)
	}
	return n
}

// firstOpOf returns the index of the first operation that reads the
// document: the query a set-up runs to show the document answers correctly.
func (w *workload) firstOpOf(uri string) int {
	for i := range w.Ops {
		if w.Ops[i].Doc == uri {
			return i
		}
	}
	panic("benchmark: no operation reads " + uri)
}

// digest is the answer fingerprint: 64-bit FNV-1a over the serialized
// result, inlined so that a timed operation does not copy the string.
func digest(xml string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(xml); i++ {
		h ^= uint64(xml[i])
		h *= 1099511628211
	}
	return h
}
