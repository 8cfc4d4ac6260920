package governor

import (
	"sort"
	"sync"
	"sync/atomic"

	"asterixfeeds/internal/metrics"
)

// ServiceName is the node-service key under which each node's Governor is
// registered with its hyracks.NodeController.
const ServiceName = "ingestion-governor"

// DefaultBudgetBytes is the node memory budget when the config does not
// override it. It bounds governor-tracked bytes (backlogs, spill files,
// memtables, in-flight frames), not the process heap.
const DefaultBudgetBytes = 64 << 20

// Config tunes a node's Governor.
type Config struct {
	// BudgetBytes is the node-wide memory budget; <=0 means
	// DefaultBudgetBytes.
	BudgetBytes int64
	// ObserveOnly keeps byte accounting and pressure reporting live but
	// forces every admission decision to Admit — the governor watches
	// without governing. Benchmarks use it to measure ungoverned growth.
	ObserveOnly bool
}

type namedSource struct {
	name string
	fn   func() int64
}

// Governor is one node's ingestion arbiter: registered byte sources sum
// into tracked bytes, registered signals contribute additional pressure,
// and per-connection Admissions meter intake against the resulting
// pressure. All methods are safe for concurrent use.
//
// A source is an atomic load: each layer that holds bytes publishes its
// total into a counter as the total changes, so measuring takes no lock —
// the governor's own included — and an intake path may ask for pressure
// while holding its own.
type Governor struct {
	node    string
	budget  int64
	observe bool

	// sources and signals are replaced, never edited, by registration
	// (serialized by mu), so measure reads them with one load each.
	sources atomic.Pointer[[]namedSource]
	signals atomic.Pointer[[]func() float64]

	mu   sync.Mutex
	adms map[string]*Admission

	// Decision counters, published by the embedding instance as
	// node.<n>.governor.* series. AdmittedBytes/AdmittedRecords count
	// traffic the governor let through; ShedFrames/ShedRecords count
	// records actually dropped on a Shed decision (reported by the caller
	// via Admission.CountShed — a Shed decision a non-lossy policy converts
	// to spill is not a shed); Delays counts blocking-gate episodes;
	// ElasticVetoes counts scale-outs refused while over budget.
	AdmittedBytes   metrics.Counter
	AdmittedRecords metrics.Counter
	ShedFrames      metrics.Counter
	ShedRecords     metrics.Counter
	Delays          metrics.Counter
	ElasticVetoes   metrics.Counter
}

// New creates the governor for one node.
func New(node string, cfg Config) *Governor {
	budget := cfg.BudgetBytes
	if budget <= 0 {
		budget = DefaultBudgetBytes
	}
	g := &Governor{
		node:    node,
		budget:  budget,
		observe: cfg.ObserveOnly,
		adms:    make(map[string]*Admission),
	}
	g.sources.Store(new([]namedSource))
	g.signals.Store(new([]func() float64))
	return g
}

// Budget returns the node memory budget in bytes.
func (g *Governor) Budget() int64 { return g.budget }

// RegisterSource adds a named byte source to the tracked total. The
// function runs on every admission decision, so it must be an atomic load
// (or arithmetic on atomic loads) and take no lock; negative returns count
// as zero.
func (g *Governor) RegisterSource(name string, fn func() int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	next := append(append([]namedSource(nil), *g.sources.Load()...), namedSource{name, fn})
	g.sources.Store(&next)
}

// RegisterSignal adds a pressure signal: a function, under the same rule as
// a source, returning a pressure contribution on the same scale as
// bytes/budget (1.0 means "at budget"). Effective pressure is the maximum of
// the byte pressure and all signals, so a stalling LSM raises pressure even
// while tracked bytes look healthy. The name labels the call; signals are
// not reported one by one.
func (g *Governor) RegisterSignal(name string, fn func() float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	next := append(append([]func() float64(nil), *g.signals.Load()...), fn)
	g.signals.Store(&next)
}

// measure sums the sources and folds in the signals. bySource, when
// non-nil, receives each source's clamped contribution.
func (g *Governor) measure(bySource map[string]int64) (tracked int64, pressure float64) {
	for _, s := range *g.sources.Load() {
		v := max(s.fn(), 0)
		tracked += v
		if bySource != nil {
			bySource[s.name] += v
		}
	}
	pressure = float64(tracked) / float64(g.budget)
	for _, signal := range *g.signals.Load() {
		pressure = max(pressure, signal())
	}
	return tracked, pressure
}

// TrackedBytes returns the current sum of all byte sources.
func (g *Governor) TrackedBytes() int64 {
	t, _ := g.measure(nil)
	return t
}

// Pressure returns the current effective pressure: max(tracked/budget,
// signals). 1.0 means the node is exactly at budget.
func (g *Governor) Pressure() float64 {
	_, p := g.measure(nil)
	return p
}

// OverBudget reports whether effective pressure has reached 1.0; elastic
// scale-out decisions consult this.
func (g *Governor) OverBudget() bool { return g.Pressure() >= 1 }

// Admission returns (creating if needed) the named admission handle, set to
// the given priority class. Re-requesting an existing name updates its
// class — a reconnect under a different policy re-prioritizes in place.
func (g *Governor) Admission(name string, class Class) *Admission {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a, ok := g.adms[name]; ok {
		a.SetClass(class)
		return a
	}
	a := &Admission{g: g, name: name}
	a.SetClass(class)
	g.adms[name] = a
	return a
}

// DropAdmission forgets the named admission; teardown paths call this so a
// departed connection's handle stops appearing in snapshots.
func (g *Governor) DropAdmission(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.adms, name)
}

// SourceBytes reports each registered source's current contribution.
func (g *Governor) SourceBytes() map[string]int64 {
	out := make(map[string]int64)
	g.measure(out)
	return out
}

// AdmissionSnapshot is one admission handle's counters for the console.
type AdmissionSnapshot struct {
	Name            string `json:"name"`
	Class           string `json:"class"`
	AdmittedRecords int64  `json:"admittedRecords"`
	ShedRecords     int64  `json:"shedRecords"`
	Delays          int64  `json:"delays"`
}

// Snapshot is one node's governor state for the console (/governor).
type Snapshot struct {
	Node          string              `json:"node"`
	BudgetBytes   int64               `json:"budgetBytes"`
	TrackedBytes  int64               `json:"trackedBytes"`
	Pressure      float64             `json:"pressure"`
	ObserveOnly   bool                `json:"observeOnly,omitempty"`
	Sources       map[string]int64    `json:"sources"`
	AdmittedBytes int64               `json:"admittedBytes"`
	ShedRecords   int64               `json:"shedRecords"`
	Delays        int64               `json:"delays"`
	ElasticVetoes int64               `json:"elasticVetoes"`
	Admissions    []AdmissionSnapshot `json:"admissions,omitempty"`
}

// Snapshot assembles the console view of this governor.
func (g *Governor) Snapshot() Snapshot {
	sources := make(map[string]int64)
	tracked, pressure := g.measure(sources)
	s := Snapshot{
		Node:          g.node,
		BudgetBytes:   g.budget,
		TrackedBytes:  tracked,
		Pressure:      pressure,
		ObserveOnly:   g.observe,
		Sources:       sources,
		AdmittedBytes: g.AdmittedBytes.Value(),
		ShedRecords:   g.ShedRecords.Value(),
		Delays:        g.Delays.Value(),
		ElasticVetoes: g.ElasticVetoes.Value(),
	}
	g.mu.Lock()
	adms := make([]*Admission, 0, len(g.adms))
	for _, a := range g.adms {
		adms = append(adms, a)
	}
	g.mu.Unlock()
	for _, a := range adms {
		s.Admissions = append(s.Admissions, a.snapshot())
	}
	sort.Slice(s.Admissions, func(i, j int) bool { return s.Admissions[i].Name < s.Admissions[j].Name })
	return s
}
