// Command blossomd runs the BlossomTree engine as a long-lived HTTP
// daemon: queries over HTTP, Prometheus metrics, per-query traces and
// pprof — the serving shape of the ROADMAP's production north star.
//
//	blossomd -addr :8080 -load bib.xml -load dblp.xml
//	blossomd -addr 127.0.0.1:0 -gen d2:5000 -slow-query 250ms
//	blossomd -gen d2:5000 -max-inflight 64 -tenant-qps 100
//
// Endpoints:
//
//	POST /query            {"query": "//book[price<50]/title", "timeout_ms": 1000}
//	                       {"query": "//title", "all_documents": true}  (every document, gathered)
//	GET  /metrics          Prometheus text exposition (counters + latency histogram)
//	GET  /trace/{queryID}  Chrome trace-event JSON of a recent query
//	GET  /debug/pprof/*    standard Go profiling endpoints
//
// One process serves one engine. An all_documents request evaluates the
// query against every loaded document on the engine's worker pool and
// gathers the results in URI order; a document that fails fails the
// request. -max-inflight and -tenant-qps enable admission control:
// overloaded or over-quota requests are shed with HTTP 429 and a
// Retry-After header, client-canceled requests map to 499, exhausted
// budgets to 408.
//
// The daemon prints "blossomd listening on <host:port>" once the
// listener is up (with the real port when -addr ends in :0), and shuts
// down gracefully on SIGINT/SIGTERM, draining in-flight requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blossomtree"
	"blossomtree/internal/server"
	"blossomtree/internal/xmlgen"
)

// listFlag collects a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (use :0 for a random port)")
		files      listFlag
		gens       listFlag
		slow       = flag.Duration("slow-query", 0, "log queries at/past this latency at Warn with their EXPLAIN ANALYZE tree (0 = off)")
		maxTimeout = flag.Duration("max-timeout", 30*time.Second, "cap (and default) for per-request budgets (0 = uncapped)")
		seed       = flag.Int64("seed", 1, "generator seed for -gen datasets")
		logJSON    = flag.Bool("log-json", false, "emit the query log as JSON instead of text")
		inflight   = flag.Int("max-inflight", 0, "admission control: cap concurrently evaluating queries, queueing up to 2N more (0 = off)")
		tenantQPS  = flag.Float64("tenant-qps", 0, "admission control: per-tenant token-bucket rate, tenant = X-Tenant header (0 = off)")
		dataDir    = flag.String("data", "", "persistent segment store directory: documents persist here on load and are served from their segments on restart without re-parsing")
	)
	flag.Var(&files, "load", "XML file to serve, registered under its basename as doc(\"…\") URI (repeatable)")
	flag.Var(&gens, "gen", "synthetic dataset to serve, as id or id:nodes, e.g. d2:5000 (repeatable)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: blossomd [-addr host:port] -load doc.xml [-load …] [-gen d2:5000] [-data dir]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if len(files) == 0 && len(gens) == 0 && *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Every -load file registers under its basename: two paths sharing a
	// basename would silently shadow each other (and cross-contaminate a
	// persistent store), so refuse them up front.
	basenames := map[string]string{}
	for _, f := range files {
		uri := filepath.Base(f)
		if prev, ok := basenames[uri]; ok {
			fatal(fmt.Errorf("-load %s and -load %s both register doc URI %q; basenames must be unique", prev, f, uri))
		}
		basenames[uri] = f
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	eng := blossomtree.NewEngine()
	var store *blossomtree.SegmentStore
	if *dataDir != "" {
		st, err := blossomtree.OpenStore(*dataDir)
		if err != nil {
			fatal(fmt.Errorf("-data %s: %v", *dataDir, err))
		}
		store = st
		for _, w := range store.Warnings() {
			logger.Warn("segment store", "warning", w)
		}
		logger.Info("segment store opened", "dir", *dataDir, "catalog", store.String())
	}

	for _, f := range files {
		uri := filepath.Base(f)
		if store != nil && store.UpToDate(uri, f) {
			logger.Info("document served from segment store", "uri", uri, "path", f)
			continue
		}
		if err := eng.LoadFile(uri, f); err != nil {
			fatal(err)
		}
		logger.Info("document loaded", "uri", uri, "path", f)
		if store != nil {
			if err := eng.PersistFile(store, uri, f); err != nil {
				fatal(fmt.Errorf("persist %q: %v", uri, err))
			}
			logger.Info("document persisted", "uri", uri, "generation", store.Generation())
		}
	}
	for _, g := range gens {
		id, nodes := g, 0
		if i := strings.IndexByte(g, ':'); i >= 0 {
			id = g[:i]
			n, err := strconv.Atoi(g[i+1:])
			if err != nil {
				fatal(fmt.Errorf("bad -gen %q: %v", g, err))
			}
			nodes = n
		}
		if store != nil && store.Has(id) {
			logger.Info("document served from segment store", "uri", id)
			continue
		}
		doc, err := xmlgen.Generate(id, xmlgen.Config{Seed: *seed, TargetNodes: nodes})
		if err != nil {
			fatal(err)
		}
		eng.LoadDocument(id, doc)
		logger.Info("dataset generated", "uri", id, "target_nodes", nodes)
		if store != nil {
			if err := eng.PersistDocument(store, id); err != nil {
				fatal(fmt.Errorf("persist %q: %v", id, err))
			}
			logger.Info("document persisted", "uri", id, "generation", store.Generation())
		}
	}
	if store != nil {
		eng.AttachStore(store)
	}

	var adm *server.Admission
	if *inflight > 0 || *tenantQPS > 0 {
		adm = server.NewAdmission(server.AdmissionConfig{
			MaxInflight: *inflight,
			TenantQPS:   *tenantQPS,
		})
		logger.Info("admission control enabled", "max_inflight", *inflight, "tenant_qps", *tenantQPS)
	}

	srv := server.New(server.Config{
		Engine:             eng,
		Logger:             logger,
		SlowQueryThreshold: *slow,
		MaxRequestTimeout:  *maxTimeout,
		Admission:          adm,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Announced on stdout so scripts can scrape the real port under
	// -addr :0 (the smoke test does).
	fmt.Printf("blossomd listening on %s\n", ln.Addr())
	logger.Info("serving", "addr", ln.Addr().String(), "slow_query", *slow)

	httpSrv := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		logger.Info("shutting down", "reason", "signal")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
	}
	logger.Info("bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blossomd:", err)
	os.Exit(1)
}
