// Command blossom evaluates an XPath or FLWOR query against an XML file
// using the BlossomTree engine.
//
// Usage:
//
//	blossom -file bib.xml '//book[author/last="Knuth"]/title'
//	blossom -file bib.xml -strategy twigstack -explain '//a[//b]//c'
//	blossom -file bib.xml 'for $b in doc("bib.xml")//book where $b/price < 50 return <t>{ $b/title }</t>'
//
// The query's doc("…") URIs all resolve to the loaded file. Path-query
// results are printed one serialized node per line; FLWOR queries with
// constructors print the constructed document; other FLWOR queries print
// one row of variable bindings per iteration.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strings"

	"blossomtree"
)

func main() {
	var (
		file      = flag.String("file", "", "XML document to query (required)")
		strategy  = flag.String("strategy", "auto", "join strategy: auto, pipelined, bounded-nl, twigstack, navigational, cost, vectorized")
		explain   = flag.Bool("explain", false, "execute the query and print the annotated plan tree (cost estimates next to actual counters and timings)")
		explOnly  = flag.Bool("explain-only", false, "print the plan with estimates only, without executing")
		metrics   = flag.Bool("metrics", false, "print the engine metrics registry after the run")
		fb        = flag.Bool("feedback", false, "print the feedback store (observed est/act cardinality history per query hash) after the run; most useful with -repeat")
		noIndex   = flag.Bool("no-indexes", false, "disable tag indexes (streaming configuration)")
		parallel  = flag.Int("parallel", 0, "fan independent NoK scans out across N workers (-1 = all cores)")
		indent    = flag.Bool("indent", false, "pretty-print XML output")
		quiet     = flag.Bool("count", false, "print only the result count")
		timeout   = flag.Duration("timeout", 0, "abort the query after this wall-clock duration (0 = no limit)")
		maxNodes  = flag.Int64("max-nodes", 0, "abort after scanning this many document/index nodes (0 = no limit)")
		maxOutput = flag.Int64("max-output", 0, "abort after producing this many result tuples (0 = no limit)")
		repeat    = flag.Int("repeat", 1, "prepare the query once and run it N times (the prepared-statement path; repeated runs hit the plan cache)")
		logQuery  = flag.Bool("log", false, "emit the structured query-log record (the daemon's pipeline) to stderr")
		slow      = flag.Duration("slow-query", 0, "log the query at Warn with its EXPLAIN ANALYZE tree when at/past this latency (implies -log; 0 = off)")
		dataDir   = flag.String("data", "", "persistent segment store directory: the file persists here and unchanged files are served mmap'd without re-parsing; usable alone to query an existing store")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: blossom -file doc.xml [flags] 'query'\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if (*file == "" && *dataDir == "") || flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	query := flag.Arg(0)

	eng := blossomtree.NewEngine()
	if *noIndex {
		eng = blossomtree.NewEngineNoIndexes()
	}
	var store *blossomtree.SegmentStore
	if *dataDir != "" {
		st, err := blossomtree.OpenStore(*dataDir)
		if err != nil {
			fatal(fmt.Errorf("-data %s: %v", *dataDir, err))
		}
		store = st
		for _, w := range store.Warnings() {
			fmt.Fprintln(os.Stderr, "blossom: segment store:", w)
		}
	}
	switch {
	case *file == "":
		// Store-only mode: the query's doc("…") URIs resolve against the
		// persisted catalog.
	case store != nil && store.UpToDate(*file, *file):
		// Unchanged since it was persisted: served out of the store.
	default:
		if err := eng.LoadFile(*file, *file); err != nil {
			fatal(err)
		}
		if store != nil {
			if err := eng.PersistFile(store, *file, *file); err != nil {
				fatal(fmt.Errorf("persist %q: %v", *file, err))
			}
		}
	}
	if store != nil {
		eng.AttachStore(store)
	}

	opts := blossomtree.Options{
		Strategy: blossomtree.Strategy(*strategy),
		Parallel: *parallel,
		Budget: blossomtree.Budget{
			MaxNodes:  *maxNodes,
			MaxOutput: *maxOutput,
			Timeout:   *timeout,
		},
	}
	if *logQuery || *slow > 0 {
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		opts.SlowQueryThreshold = *slow
	}

	// Ctrl-C cancels the in-flight query through the governor rather
	// than killing the process: the engine unwinds with ErrCanceled and
	// the partial operator statistics are printed below.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	if *explOnly || *explain {
		opts.Analyze = *explain
		s, err := eng.ExplainWithContext(ctx, query, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(s)
		if *explain {
			printMetrics(*metrics)
			printFeedback(*fb)
		}
		return
	}

	var res *blossomtree.Result
	var err error
	if *repeat > 1 {
		p, perr := eng.PrepareWith(query, opts)
		if perr != nil {
			fatal(perr)
		}
		for i := 0; i < *repeat; i++ {
			if res, err = p.RunContext(ctx); err != nil {
				fatal(err)
			}
		}
	} else {
		res, err = eng.QueryWithContext(ctx, query, opts)
	}
	if err != nil {
		fatal(err)
	}
	defer printFeedback(*fb)
	defer printMetrics(*metrics)
	if *quiet {
		fmt.Println(res.Len())
		return
	}
	switch {
	case len(res.Nodes()) > 0:
		for _, n := range res.Nodes() {
			fmt.Println(n.XML())
		}
	case res.XML() != "":
		if *indent {
			fmt.Println(res.XMLIndent())
		} else {
			fmt.Println(res.XML())
		}
	default:
		for i, row := range res.Rows() {
			var vars []string
			for v := range row {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			var parts []string
			for _, v := range vars {
				vals := make([]string, len(row[v]))
				for k, n := range row[v] {
					vals[k] = n.XML()
				}
				parts = append(parts, fmt.Sprintf("$%s=%s", v, strings.Join(vals, ",")))
			}
			fmt.Printf("row %d: %s\n", i+1, strings.Join(parts, " "))
		}
	}
}

func printMetrics(enabled bool) {
	if !enabled {
		return
	}
	fmt.Print("-- metrics --\n" + blossomtree.FormatMetrics(blossomtree.Metrics()))
}

func printFeedback(enabled bool) {
	if !enabled {
		return
	}
	fmt.Print("-- feedback --\n" + blossomtree.FeedbackReport())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blossom:", err)
	// A governed abort (timeout, budget, Ctrl-C) carries the partial
	// EXPLAIN ANALYZE tree recorded up to the abort point.
	if st, ok := blossomtree.AbortStats(err); ok {
		fmt.Fprint(os.Stderr, "-- partial plan statistics at abort --\n"+st)
	}
	os.Exit(1)
}
