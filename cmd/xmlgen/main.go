// Command xmlgen generates the synthetic datasets of the paper's
// evaluation (Table 1): the recursive-DTD document d1, the XBench-like
// address (d2) and catalog (d3), and the Treebank-like (d4) and
// DBLP-like (d5) substitutes for the original real datasets.
//
// Usage:
//
//	xmlgen -dataset d2 -o address.xml                 # default 1/40 scale
//	xmlgen -dataset d4 -scale 1.0 -o treebank.xml     # paper-scale node count
//	xmlgen -dataset d5 -nodes 100000 -seed 7 -o dblp.xml
//	xmlgen -dataset d2 -stats -o /dev/null            # one row of Table 1
//	xmlgen -list                                      # the catalog, Table 2 and the Appendix-A suites
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams injected; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmlgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset = fs.String("dataset", "", "dataset ID: d1..d5")
		out     = fs.String("o", "", "output file (default stdout)")
		nodes   = fs.Int("nodes", 0, "approximate element count (overrides -scale)")
		scale   = fs.Float64("scale", 0, "fraction of the paper's node count (default 1/40)")
		seed    = fs.Int64("seed", 1, "generator seed")
		list    = fs.Bool("list", false, "list the dataset catalog with each dataset's Appendix-A suite and the Table 2 categories, and exit")
		stats   = fs.Bool("stats", false, "print Table 1 statistics of the generated document to stderr")
		indent  = fs.Bool("indent", false, "pretty-print the output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "xmlgen:", err)
		return 1
	}

	if *list {
		printCatalog(stdout)
		return 0
	}
	if *dataset == "" {
		fmt.Fprintln(stderr, "xmlgen: -dataset is required (or -list)")
		fs.Usage()
		return 2
	}
	target := *nodes
	if target == 0 && *scale > 0 {
		info, ok := xmlgen.LookupInfo(*dataset)
		if !ok {
			return fail(fmt.Errorf("unknown dataset %q", *dataset))
		}
		target = int(float64(info.PaperNodes) * *scale)
	}
	doc, err := xmlgen.Generate(*dataset, xmlgen.Config{Seed: *seed, TargetNodes: target})
	if err != nil {
		return fail(err)
	}
	if *stats {
		fmt.Fprintln(stderr, xmltree.ComputeStats(doc).String())
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	err = xmltree.Write(w, doc.Root, xmltree.WriteOptions{Indent: *indent})
	if err == nil && *indent {
		_, err = io.WriteString(w, "\n")
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// printCatalog prints the paper's Table 1 reference figures and
// Appendix-A suite per dataset, then the Table 2 categories the suites'
// classes refer to.
func printCatalog(w io.Writer) {
	for _, in := range xmlgen.Catalog {
		fmt.Fprintf(w, "%-3s %-14s %-9s recursive=%-5v paper: %s, %d nodes, avg dep %d, max dep %d, %d tags\n    %s\n",
			in.ID, in.Name, in.Category, in.Recursive,
			in.PaperSize, in.PaperNodes, in.PaperAvgDep, in.PaperMaxDep, in.PaperTags,
			in.Description)
		for _, q := range xmlgen.Suite(in.ID) {
			fmt.Fprintf(w, "    %s (%s): %s\n", q.ID, q.Category, q.Text)
		}
	}
	fmt.Fprintf(w, "\n%-9s %-38s %s\n", "category", "meaning", "example query")
	for _, r := range xmlgen.Table2 {
		fmt.Fprintf(w, "%-9s %-38s %s\n", r.Category, r.Meaning, r.Example)
	}
}
