package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"blossomtree"
)

// cleanups runs on every exit path, signals included, so that no daemon
// and no scratch directory outlives the benchmark.
var cleanups struct {
	mu  sync.Mutex
	fns map[int]func()
	seq int
}

func onExit(f func()) (cancel func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = map[int]func(){}
	}
	cleanups.seq++
	id := cleanups.seq
	cleanups.fns[id] = f
	return func() {
		cleanups.mu.Lock()
		delete(cleanups.fns, id)
		cleanups.mu.Unlock()
	}
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for _, f := range fns {
		f()
	}
}

// daemon is one spawned blossomd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	startup time.Duration // spawn → "listening" line: load or open included
	done    chan struct{} // closed once the process has been waited for
	forget  func()
}

const listenPrefix = "blossomd listening on "

// startDaemon spawns the real blossomd, its stderr (the query log) going
// to a file, and waits for the line that announces its port.
func startDaemon(bin, stderrPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(stderrPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	d.forget = onExit(d.kill)
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), listenPrefix); ok {
				addrc <- a
			}
		}
		cmd.Wait()
	}()
	select {
	case d.addr = <-addrc:
		d.startup = time.Since(t0)
		return d, nil
	case <-d.done:
		msg, _ := os.ReadFile(stderrPath)
		d.forget()
		return nil, fmt.Errorf("blossomd exited before listening: %s", strings.TrimSpace(string(msg)))
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, fmt.Errorf("blossomd did not announce its port within 120s")
	}
}

// stop asks the daemon to drain and exit, and waits until it has.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.forget()
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.forget()
}

// rssMB reads the daemon's resident set size.
func (d *daemon) rssMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// queryReply is what the client reads of a POST /query response.
type queryReply struct {
	Count     int     `json:"count"`
	XML       string  `json:"xml"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Strategy  string  `json:"strategy"`
	NavReason string  `json:"nav_reason"`
	Error     string  `json:"error"`
}

// httpClient is one keep-alive connection to the daemon.
type httpClient struct {
	c   *http.Client
	url string
}

func newHTTPClient(addr string) *httpClient {
	return &httpClient{
		c:   &http.Client{Timeout: opBudget, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url: "http://" + addr,
	}
}

// post sends one query and reads, decodes and digests the reply; ok means
// 200 with the expected count and digest.
func (h *httpClient) post(body []byte, o *op) (reply queryReply, size int, ok bool) {
	resp, err := h.c.Post(h.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply, 0, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(data, &reply) != nil {
		return reply, len(data), false
	}
	return reply, len(data), reply.Count == o.Count && digest(reply.XML) == o.Digest
}

func (h *httpClient) get(path string) (string, error) {
	resp, err := h.c.Get(h.url + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(data), nil
}

var heapAllocRE = regexp.MustCompile(`(?m)^# HeapAlloc = (\d+)$`)

// heapAlloc reads the daemon's live heap after a collection, from the
// memory statistics its heap profile endpoint prints.
func (h *httpClient) heapAlloc() (int64, error) {
	text, err := h.get("/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	m := heapAllocRE.FindStringSubmatch(text)
	if m == nil {
		return 0, fmt.Errorf("no HeapAlloc line in the heap profile")
	}
	return strconv.ParseInt(m[1], 10, 64)
}

// counters scrapes the daemon's Prometheus counters by short name.
func (h *httpClient) counters() (map[string]int64, error) {
	text, err := h.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "blossomtree_")] = int64(f)
		}
	}
	return out, nil
}

// httpRun is the state of the serve-http workload.
type httpRun struct {
	cfg     runConfig
	w       *workload
	d       *daemon
	clients []*httpClient
	bodies  [][]byte // JSON request body per distinct op
}

func runHTTP(cfg runConfig, w *workload, res *runResult) error {
	work, err := os.MkdirTemp(filepath.Join(cfg.Root, ".bench_build"), "serve-http-")
	if err != nil {
		return err
	}
	forget := onExit(func() { os.RemoveAll(work) })
	defer func() { os.RemoveAll(work); forget() }()

	h := &httpRun{cfg: cfg, w: w}
	for _, o := range w.Ops {
		b, _ := json.Marshal(map[string]string{"query": o.Query})
		h.bodies = append(h.bodies, b)
	}
	store := filepath.Join(work, "store")
	ingestS, err := h.ingest(work, store)
	if err != nil {
		return err
	}
	storeBytes := dirSize(store)
	cfg.logf("%s: ingest %.3fs, store %d bytes for %d XML bytes", w.Name, ingestS, storeBytes, w.xmlBytes())

	firstMS, err := h.setups(work, store, res)
	if err != nil {
		return err
	}
	defer func() {
		if h.d != nil {
			h.d.stop()
		}
	}()
	res.Clients = len(h.clients)
	if err := h.warmUp(); err != nil {
		return err
	}
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		dur /= 2
	}
	before, _ := h.verify()
	win, err := h.measure(dur, nil)
	if err != nil {
		return err
	}
	res.summarize(w, win)
	cfg.logf("%s: window %.2fs: %d requests over %d connections (%d beyond p95), %d failed, %d replans",
		w.Name, win.elapsed.Seconds(), len(win.ms), len(h.clients), res.BeyondP95, win.failed, win.replans)
	after, wrong := h.verify()
	res.Attempted += len(w.Ops)
	res.Failed += wrong
	res.strategyChanges(w, before, after)
	if !cfg.Trace {
		return nil
	}

	tr := newTracer()
	traced, err := h.measure(dur, tr)
	if err != nil {
		return err
	}
	res.Attempted += len(traced.ms)
	res.Failed += traced.failed
	res.set("segstore.ingest_s", ingestS)
	res.set("segstore.bytes_per_xml_byte", float64(storeBytes)/float64(w.xmlBytes()))
	res.set("exec.replans", float64(win.replans))
	res.set("exec.nav_fallbacks", float64(win.navFallbacks))
	if lookups := win.cacheHits + win.cacheMisses; lookups > 0 {
		res.set("exec.plan_cache_hit_ratio", float64(win.cacheHits)/float64(lookups))
	}
	res.set("server.overhead_ms", median(win.overheadMS))
	res.set("server.response_bytes", float64(win.bytes)/float64(len(win.ms)))
	res.set("result.bytes_per_op", float64(win.xmlBytes)/float64(len(win.ms)))
	res.set("server.rss_mb", h.d.rssMB())
	// Materialization: a stored document's first query against the same
	// query warm, averaged over the documents.
	warm := win.classLatencies(len(w.Classes), win.elapsed.Seconds())
	var mat []float64
	for i, d := range w.Docs {
		mat = append(mat, firstMS[i]-warm[w.Ops[w.firstOpOf(d.URI)].Class])
	}
	res.set("segstore.materialize_ms", mean(mat))
	if g := geomean(warm); g > 0 {
		res.set("trace.overhead_ratio", geomean(traced.classLatencies(len(w.Classes), traced.elapsed.Seconds()))/g)
	}
	h.d.stop()
	h.d = nil
	t0 := time.Now()
	st, err := blossomtree.OpenStore(store)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	res.set("segstore.open_s", time.Since(t0).Seconds())
	st.Close()
	return writeTrace(cfg, w.Name, tr, "request = client round trip; server.elapsed = the response's own elapsed_ms; the request row's self time is server.overhead\n")
}

// ingest is the write side: the first start of blossomd over the XML files
// parses, persists and fsyncs every document before it listens.
func (h *httpRun) ingest(work, store string) (seconds float64, err error) {
	args := []string{"-addr", "127.0.0.1:0", "-data", store}
	for _, d := range h.w.Docs {
		path := filepath.Join(work, d.URI)
		if err := os.WriteFile(path, []byte(d.XML), 0o644); err != nil {
			return 0, err
		}
		args = append(args, "-load", path)
	}
	d, err := startDaemon(h.cfg.Daemon, filepath.Join(work, "ingest.log"), args...)
	if err != nil {
		return 0, err
	}
	d.stop()
	return d.startup.Seconds(), nil
}

// setups restarts the daemon from the store alone, cold, until every
// document has answered one query correctly; the last daemon stays up. It
// returns each document's first-query latency on that daemon.
func (h *httpRun) setups(work, store string, res *runResult) (firstMS []float64, err error) {
	repeats := h.cfg.SetupRepeats
	if h.cfg.Trace {
		repeats = 1
	}
	var times []float64
	for i := 0; i < repeats; i++ {
		if h.d != nil {
			h.d.stop()
		}
		h.d, err = startDaemon(h.cfg.Daemon, filepath.Join(work, "serve.log"), "-addr", "127.0.0.1:0", "-data", store)
		if err != nil {
			return nil, err
		}
		c := newHTTPClient(h.d.addr)
		last := i == repeats-1
		var heap0 int64
		if last {
			if heap0, err = c.heapAlloc(); err != nil {
				return nil, err
			}
		}
		firstMS = firstMS[:0]
		t0 := time.Now()
		for _, doc := range h.w.Docs {
			oi := h.w.firstOpOf(doc.URI)
			t := time.Now()
			if _, _, ok := c.post(h.bodies[oi], &h.w.Ops[oi]); !ok {
				return nil, fmt.Errorf("set-up: %s answered wrong over HTTP", h.w.Ops[oi].Query)
			}
			firstMS = append(firstMS, float64(time.Since(t))/1e6)
		}
		times = append(times, (h.d.startup + time.Since(t0)).Seconds())
		if last {
			heap1, err := c.heapAlloc()
			if err != nil {
				return nil, err
			}
			if !h.cfg.Trace {
				res.set("heap_bytes_per_node", float64(heap1-heap0)/float64(h.w.elements()))
			}
		}
	}
	if !h.cfg.Trace {
		res.set("setup_s", median(times))
	}
	h.cfg.logf("%s: set-up median %.4fs of %d (store → every document answered)", h.w.Name, median(times), len(times))
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	for i := 0; i < n; i++ {
		h.clients = append(h.clients, newHTTPClient(h.d.addr))
	}
	return firstMS, nil
}

// verify posts every distinct operation once, outside any timing, checks
// the reply and returns the strategy the daemon reports for each, and how
// many answered wrong.
func (h *httpRun) verify() (strategies []string, wrong int) {
	for i := range h.w.Ops {
		reply, _, ok := h.clients[0].post(h.bodies[i], &h.w.Ops[i])
		if !ok {
			wrong++
			h.cfg.logf("%s: WRONG ANSWER: %s (%s)", h.w.Name, h.w.Ops[i].Query, reply.Error)
		}
		strategies = append(strategies, reply.Strategy)
	}
	return strategies, wrong
}

// warmUp cycles the schedule until every class has run WarmExecutions
// times and a pass has gone by without a feedback replan.
func (h *httpRun) warmUp() error {
	minWeight := len(h.w.Schedule)
	perOp := make([]int, len(h.w.Ops))
	for _, i := range h.w.Schedule {
		perOp[i]++
	}
	for _, n := range perOp {
		if n < minWeight {
			minWeight = n
		}
	}
	passes := (h.cfg.WarmExecutions + minWeight - 1) / minWeight
	t0 := time.Now()
	for p := 0; p < passes+maxSettlePasses; p++ {
		before, err := h.clients[0].counters()
		if err != nil {
			return err
		}
		h.pass(nil, nil, time.Time{})
		after, err := h.clients[0].counters()
		if err != nil {
			return err
		}
		if p+1 >= passes && after["feedback_replans_total"] == before["feedback_replans_total"] {
			h.cfg.logf("%s: warm-up %d passes in %.2fs, %d replans so far", h.w.Name, p+1, time.Since(t0).Seconds(), after["feedback_replans_total"])
			return nil
		}
	}
	h.cfg.logf("%s: warm-up did not settle: replans still occurring", h.w.Name)
	return nil
}

// pass has every client take operations off the shared schedule until the
// deadline (or, with a zero deadline, for one pass); each waits for its
// reply before taking the next. The per-client windows are returned merged.
func (h *httpRun) pass(win *window, tr *tracer, deadline time.Time) {
	var next atomic.Int64
	opened := time.Now()
	parts := make([]window, len(h.clients))
	var wg sync.WaitGroup
	for ci, c := range h.clients {
		wg.Add(1)
		go func(ci int, c *httpClient) {
			defer wg.Done()
			part := &parts[ci]
			for {
				n := int(next.Add(1) - 1)
				if deadline.IsZero() && n >= len(h.w.Schedule) {
					return
				}
				oi := h.w.Schedule[n%len(h.w.Schedule)]
				o := &h.w.Ops[oi]
				t0 := time.Now()
				if !deadline.IsZero() && !t0.Before(deadline) {
					return
				}
				var sent int64
				if tr != nil {
					sent = tr.now()
				}
				reply, size, ok := c.post(h.bodies[oi], o)
				d := time.Since(t0)
				if tr != nil {
					// The server's own time goes in the middle of the round
					// trip: where it began inside it is not known.
					got := tr.now()
					id := tr.add("request", -1, n, ci, sent, got)
					el := int64(reply.ElapsedMS * 1e6)
					if el > got-sent {
						el = got - sent
					}
					mid := (sent + got) / 2
					tr.add("server.elapsed", id, n, ci, mid-el/2, mid+el/2)
				}
				if win == nil {
					continue
				}
				if !ok || d > opBudget {
					part.failed++
				}
				if reply.NavReason != "" {
					part.navFallbacks++
				}
				part.bytes += int64(size)
				part.xmlBytes += int64(len(reply.XML))
				part.add(o.Class, d, t0.Sub(opened))
				part.overheadMS = append(part.overheadMS, float64(d)/1e6-reply.ElapsedMS)
			}
		}(ci, c)
	}
	wg.Wait()
	if win == nil {
		return
	}
	for i := range parts {
		win.failed += parts[i].failed
		win.navFallbacks += parts[i].navFallbacks
		win.bytes += parts[i].bytes
		win.xmlBytes += parts[i].xmlBytes
		win.merge(&parts[i].samples)
		win.overheadMS = append(win.overheadMS, parts[i].overheadMS...)
	}
}

// measure runs the closed loop for dur with the daemon's counters read on
// both sides of the window.
func (h *httpRun) measure(dur time.Duration, tr *tracer) (*window, error) {
	m0, err := h.clients[0].counters()
	if err != nil {
		return nil, err
	}
	win := &window{}
	start := time.Now()
	h.pass(win, tr, start.Add(dur))
	win.elapsed = time.Since(start)
	m1, err := h.clients[0].counters()
	if err != nil {
		return nil, err
	}
	win.replans = m1["feedback_replans_total"] - m0["feedback_replans_total"]
	win.cacheHits = m1["plan_cache_hits"] - m0["plan_cache_hits"]
	win.cacheMisses = m1["plan_cache_misses"] - m0["plan_cache_misses"]
	return win, nil
}

func dirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
