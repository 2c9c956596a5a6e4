// Package feedback closes the estimate→actual loop of the cost model
// (ROADMAP item 3): a concurrency-safe, bounded store of observed
// per-operator cardinalities and scan counts, keyed by (query hash,
// operator path). The telemetry boundary records every successful
// evaluation's actuals here; on a plan-cache hit the executor compares
// the cached template's estimates against this history and, when they
// diverge past a configurable ratio threshold, recompiles the template
// with history-corrected cardinalities (plan.Options.CardHints) and
// re-caches it — so cached plans get better as traffic repeats.
//
// Each engine owns one store, so a
// history describes that engine's documents only. It is keyed by query
// hash alone, not by the snapshot version that keys the plan cache:
// observed cardinalities are a property of the engine's workload, so
// history survives Engine.Add churn and warms replans across versions.
//
// Each replan is judged exactly once: the pre-replan latency EWMA is
// snapshotted when the replan is armed, and after RingSize post-replan
// samples accumulate the mean is compared against it, bumping
// feedback_wins_total or feedback_losses_total.
package feedback

import (
	"container/list"
	"math"
	"sort"
	"sync"

	"blossomtree/internal/obs"
)

// Config bounds the store and tunes the replan trigger. The zero value
// of any field means "use the default".
type Config struct {
	// DriftThreshold is the est/act ratio (always ≥ 1; max of over- and
	// under-estimate directions) at or past which a cache hit replans.
	DriftThreshold float64
	// MinSamples gates replanning until the hash has at least this many
	// observations, and spaces consecutive replans of the same hash at
	// least MinSamples observations apart.
	MinSamples int64
	// RingSize is the length of the per-operator last-N observation ring
	// and the number of post-replan latency samples collected before a
	// replan is judged win or loss.
	RingSize int
	// MaxQueries bounds the number of query hashes tracked; least
	// recently observed hashes are evicted past it.
	MaxQueries int
}

// Defaults for Config fields left zero.
const (
	DefaultDriftThreshold = 2.0
	DefaultMinSamples     = 32
	DefaultRingSize       = 8
	DefaultMaxQueries     = 4096
)

func (c Config) withDefaults() Config {
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = DefaultDriftThreshold
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.RingSize <= 0 {
		c.RingSize = DefaultRingSize
	}
	if c.MaxQueries <= 0 {
		c.MaxQueries = DefaultMaxQueries
	}
	return c
}

// ewmaAlpha weights new observations; ~0.25 keeps roughly the last few
// samples dominant while still converging fast on a shifted workload.
const ewmaAlpha = 0.25

// OpObservation is one operator's est/act counters from a single
// successful evaluation, reported by the telemetry boundary.
type OpObservation struct {
	// Key is the operator's stable feedback key (obs.OpStats.FeedbackKey
	// — the NoK/twig root label the cost model's CardHints use).
	Key string
	// EstOut/EstNodes are the plan's estimates (negative = unknown).
	EstOut   float64
	EstNodes float64
	// Emitted/Scanned are the operator's actual counters.
	Emitted int64
	Scanned int64
}

// opHistory accumulates one (query hash, operator path) cell.
type opHistory struct {
	estOut   float64 // latest template estimate
	estNodes float64
	outEWMA  float64 // observed emitted, exponentially weighted
	scanEWMA float64 // observed scanned, exponentially weighted
	n        int64
	ring     []float64 // last-N observed emitted counts, oldest first
}

func (o *opHistory) observe(ob OpObservation, ringSize int) {
	if ob.EstOut >= 0 {
		o.estOut = ob.EstOut
	}
	if ob.EstNodes >= 0 {
		o.estNodes = ob.EstNodes
	}
	out, scan := float64(ob.Emitted), float64(ob.Scanned)
	if o.n == 0 {
		o.outEWMA, o.scanEWMA = out, scan
	} else {
		o.outEWMA += ewmaAlpha * (out - o.outEWMA)
		o.scanEWMA += ewmaAlpha * (scan - o.scanEWMA)
	}
	o.n++
	o.ring = append(o.ring, out)
	if len(o.ring) > ringSize {
		o.ring = o.ring[len(o.ring)-ringSize:]
	}
}

// drift is the larger of the over- and under-estimate ratios between
// the template's output estimate and the observed EWMA, with both
// floored at 1 so empty results don't divide by zero.
func (o *opHistory) drift() float64 {
	est := math.Max(o.estOut, 1)
	act := math.Max(o.outEWMA, 1)
	return math.Max(est/act, act/est)
}

// history is everything the store knows about one query hash.
type history struct {
	hash     string
	elem     *list.Element
	strategy string // strategy of the most recent observation
	n        int64
	latEWMA  float64 // seconds
	ops      map[string]*opHistory

	// Replan lifecycle: armed by BeginReplan, judged once after RingSize
	// post-replan latency samples.
	replanned    bool
	replans      int64
	lastReplanN  int64
	preReplanLat float64
	postN        int
	postSum      float64
	judged       bool
	won          bool
}

func (h *history) drift() float64 {
	d := 1.0
	for _, o := range h.ops {
		if od := o.drift(); od > d {
			d = od
		}
	}
	return d
}

// Store is the feedback store. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	cfg     Config
	entries map[string]*history
	order   *list.List // front = most recently observed
	reg     *obs.Registry
}

// NewStore returns an empty store reporting its counters into reg
// (obs.Default when nil).
func NewStore(cfg Config, reg *obs.Registry) *Store {
	if reg == nil {
		reg = obs.Default
	}
	s := &Store{
		cfg:     cfg.withDefaults(),
		entries: make(map[string]*history),
		order:   list.New(),
		reg:     reg,
	}
	// Pre-register the counters so expositions show explicit zeros
	// before the first replan (the plan cache does the same).
	reg.Add(obs.MetricFeedbackReplans, 0)
	reg.Add(obs.MetricFeedbackWins, 0)
	reg.Add(obs.MetricFeedbackLosses, 0)
	return s
}

// SetConfig replaces the store's configuration (zero fields take
// defaults). Existing history is kept; only future decisions use the
// new thresholds.
func (s *Store) SetConfig(cfg Config) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg = cfg.withDefaults()
}

// ConfigSnapshot returns the active configuration.
func (s *Store) ConfigSnapshot() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// Observe records one successful evaluation: per-operator est/act
// counters, the end-to-end latency in seconds, and the executed
// strategy. It also advances the win/loss judgement of a pending
// replan on this hash.
func (s *Store) Observe(hash, strategy string, latency float64, ops []OpObservation) {
	if hash == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.touch(hash)
	if h.n == 0 {
		h.latEWMA = latency
	} else {
		h.latEWMA += ewmaAlpha * (latency - h.latEWMA)
	}
	h.n++
	h.strategy = strategy
	for _, ob := range ops {
		if ob.Key == "" {
			continue
		}
		o, ok := h.ops[ob.Key]
		if !ok {
			o = &opHistory{estOut: -1, estNodes: -1}
			h.ops[ob.Key] = o
		}
		o.observe(ob, s.cfg.RingSize)
	}
	if h.replanned && !h.judged {
		h.postSum += latency
		h.postN++
		if h.postN >= s.cfg.RingSize {
			h.judged = true
			h.won = h.postSum/float64(h.postN) <= h.preReplanLat
			if h.won {
				s.reg.Add(obs.MetricFeedbackWins, 1)
			} else {
				s.reg.Add(obs.MetricFeedbackLosses, 1)
			}
		}
	}
}

// touch returns the hash's history, creating it and evicting the least
// recently observed entry past the bound. Caller holds s.mu.
func (s *Store) touch(hash string) *history {
	if h, ok := s.entries[hash]; ok {
		s.order.MoveToFront(h.elem)
		return h
	}
	h := &history{hash: hash, ops: make(map[string]*opHistory)}
	h.elem = s.order.PushFront(h)
	s.entries[hash] = h
	for len(s.entries) > s.cfg.MaxQueries {
		oldest := s.order.Back()
		old := oldest.Value.(*history)
		s.order.Remove(oldest)
		delete(s.entries, old.hash)
	}
	return h
}

// BeginReplan atomically checks whether the hash's history justifies a
// replan and, if so, arms the replan lifecycle and returns
// history-corrected cardinality hints (operator key → observed output
// EWMA, floored at 1) for plan.Options.CardHints. The check-and-arm is
// one critical section so concurrent cache hits on the same hash arm at
// most one replan.
//
// A replan fires when the hash has at least MinSamples observations,
// its max operator drift is at or past DriftThreshold, and at least
// MinSamples observations have landed since the previous replan (the
// re-arm guard that keeps a noisy query from replanning every hit).
func (s *Store) BeginReplan(hash string) (map[string]float64, float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.entries[hash]
	if !ok || h.n < s.cfg.MinSamples || h.n < h.lastReplanN+s.cfg.MinSamples {
		return nil, 0, false
	}
	drift := h.drift()
	if drift < s.cfg.DriftThreshold {
		return nil, 0, false
	}
	hints := make(map[string]float64, len(h.ops))
	for key, o := range h.ops {
		hints[key] = math.Max(o.outEWMA, 1)
	}
	h.lastReplanN = h.n
	h.replans++
	h.replanned = true
	h.preReplanLat = h.latEWMA
	h.postN, h.postSum, h.judged, h.won = 0, 0, false, false
	s.reg.Add(obs.MetricFeedbackReplans, 1)
	return hints, drift, true
}

// OpSummary is one operator cell of a Summary.
type OpSummary struct {
	Key      string    `json:"key"`
	EstOut   float64   `json:"est_out"`
	ActOut   float64   `json:"act_out"`
	EstNodes float64   `json:"est_nodes"`
	ActScan  float64   `json:"act_scan"`
	Drift    float64   `json:"drift"`
	N        int64     `json:"n"`
	Ring     []float64 `json:"last_out"`
}

// Summary is the exported view of one query hash's history, the shape
// GET /feedback and blossom -feedback render.
type Summary struct {
	Hash      string      `json:"hash"`
	Strategy  string      `json:"strategy"`
	N         int64       `json:"n"`
	LatencyMS float64     `json:"latency_ewma_ms"`
	Drift     float64     `json:"drift"`
	Replanned bool        `json:"replanned"`
	Replans   int64       `json:"replans,omitempty"`
	Judged    bool        `json:"judged,omitempty"`
	Won       bool        `json:"won,omitempty"`
	Ops       []OpSummary `json:"ops"`
}

func (h *history) summary() Summary {
	sum := Summary{
		Hash:      h.hash,
		Strategy:  h.strategy,
		N:         h.n,
		LatencyMS: h.latEWMA * 1e3,
		Drift:     h.drift(),
		Replanned: h.replanned,
		Replans:   h.replans,
		Judged:    h.judged,
		Won:       h.won,
	}
	for key, o := range h.ops {
		sum.Ops = append(sum.Ops, OpSummary{
			Key:      key,
			EstOut:   o.estOut,
			ActOut:   o.outEWMA,
			EstNodes: o.estNodes,
			ActScan:  o.scanEWMA,
			Drift:    o.drift(),
			N:        o.n,
			Ring:     append([]float64(nil), o.ring...),
		})
	}
	sort.Slice(sum.Ops, func(i, j int) bool { return sum.Ops[i].Key < sum.Ops[j].Key })
	return sum
}

// Lookup returns the summary for one query hash.
func (s *Store) Lookup(hash string) (Summary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.entries[hash]
	if !ok {
		return Summary{}, false
	}
	return h.summary(), true
}

// Summaries returns every tracked hash's summary, most-observed first
// (hash as tiebreak, so output is deterministic).
func (s *Store) Summaries() []Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Summary, 0, len(s.entries))
	for _, h := range s.entries {
		out = append(out, h.summary())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// Len returns the number of tracked query hashes.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
