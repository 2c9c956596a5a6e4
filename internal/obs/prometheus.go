package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) of a registry: every
// counter renders as a counter family, every histogram as a histogram
// family with cumulative le buckets, _sum and _count. Names are
// namespaced under "blossomtree_" so a scrape of several processes
// stays attributable; characters outside [a-zA-Z0-9_:] are mapped to
// '_' to keep arbitrary registry names valid.

// PromNamespace prefixes every exposed metric name.
const PromNamespace = "blossomtree_"

// promName maps a registry name to a valid namespaced Prometheus name.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString(PromNamespace)
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			sb.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promFloat formats a float the way Prometheus clients do: shortest
// representation that round-trips.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry — counters and histograms — in
// Prometheus text exposition format, families sorted by name. Safe to
// call concurrently with evaluations; each value is a point-in-time
// atomic load.
//
// A labeled counter family sharing a plain counter's name renders its
// series right after the unlabeled aggregate line, inside the same
// family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	labeled := r.labeledSnapshot()
	for _, name := range sortedCounterNames(r) {
		c := r.Counter(name)
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, c.Load()); err != nil {
			return err
		}
		if lc, ok := labeled[name]; ok {
			delete(labeled, name)
			if err := writePromLabeled(w, pn, lc); err != nil {
				return err
			}
		}
	}
	// Labeled families with no unlabeled aggregate render on their own.
	for _, name := range sortedLabeledNames(labeled) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", pn); err != nil {
			return err
		}
		if err := writePromLabeled(w, pn, labeled[name]); err != nil {
			return err
		}
	}
	for _, h := range r.Histograms() {
		if err := writePromHistogram(w, h); err != nil {
			return err
		}
	}
	return nil
}

func sortedLabeledNames(labeled map[string]*LabeledCounter) []string {
	names := make([]string, 0, len(labeled))
	for n := range labeled {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writePromLabeled renders one labeled counter family's series, sorted
// by label value with the fold-over "other" series last.
func writePromLabeled(w io.Writer, pn string, lc *LabeledCounter) error {
	series := lc.Series()
	values := make([]string, 0, len(series))
	for v := range series {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool {
		if (values[i] == LabelOther) != (values[j] == LabelOther) {
			return values[j] == LabelOther
		}
		return values[i] < values[j]
	})
	for _, v := range values {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", pn, lc.Label(), v, series[v]); err != nil {
			return err
		}
	}
	return nil
}

func sortedCounterNames(r *Registry) []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

func writePromHistogram(w io.Writer, h *Histogram) error {
	pn := promName(h.Name())
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	bounds := h.Bounds()
	counts := h.Counts()
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(b), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum); err != nil {
		return err
	}
	// _count repeats the +Inf cumulative count (they must agree within
	// one exposition even while observations race the scrape).
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum()), pn, cum)
	return err
}
