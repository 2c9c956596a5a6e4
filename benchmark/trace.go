package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark around its calls into each layer and kept in memory until
// the run ends.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's origin
	Parent     int32 // index of the causing span, -1 for a root
	Op         int32 // identifier shared by the spans of one operation
	Lane       int32 // client that issued the operation
}

// tracer collects spans. begin/end are safe for concurrent clients.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the current time on the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) begin(name string, parent int32, opID, lane int) int32 {
	return t.add(name, parent, opID, lane, t.now(), 0)
}

func (t *tracer) end(id int32) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller measured (a client's
// request, or the server's own elapsed time as its response reports it).
func (t *tracer) add(name string, parent int32, opID, lane int, start, end int64) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: int32(opID), Lane: int32(lane)})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name   string
	Count  int
	SelfNS int64 // duration minus the part covered by child spans
}

// layerTable computes each span name's self time, and the share of the
// root spans' time that the self times of all spans account for.
func (t *tracer) layerTable() (rows []layerRow, rootNS, selfSumNS int64) {
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerRow{}
	for i, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		dur := s.End - s.Start
		r.Count++
		r.SelfNS += dur - childNS[i]
		selfSumNS += dur - childNS[i]
		if s.Parent < 0 {
			rootNS += dur
		}
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfNS > rows[j].SelfNS })
	return rows, rootNS, selfSumNS
}

// durations returns the durations (ms) of every span with the name.
func (t *tracer) durations(name string) (ms []float64) {
	for _, s := range t.spans {
		if s.Name == name {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	return ms
}

// formatLayerTable renders the per-layer self-time table.
func formatLayerTable(workload string, rows []layerRow, rootNS int64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer self time, workload %s (traced pass)\n", workload)
	fmt.Fprintf(&sb, "%-22s %9s %14s %12s %8s\n", "span", "count", "self total ms", "self mean us", "share")
	for _, r := range rows {
		share := 0.0
		if rootNS > 0 {
			share = float64(r.SelfNS) / float64(rootNS)
		}
		fmt.Fprintf(&sb, "%-22s %9d %14.3f %12.2f %7.1f%%\n", r.Name, r.Count,
			float64(r.SelfNS)/1e6, float64(r.SelfNS)/1e3/float64(r.Count), 100*share)
	}
	return sb.String()
}

// maxChromeSpans bounds the Chrome trace file; the table always covers
// every span.
const maxChromeSpans = 40_000

// writeChrome writes the spans as Chrome trace-event JSON (load it at
// chrome://tracing or https://ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	n := len(t.spans)
	if n > maxChromeSpans {
		n = maxChromeSpans
	}
	for i, s := range t.spans[:n] {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"op":%d}}`,
			s.Name, s.Lane+1, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, i, s.Parent, s.Op)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
