package metadata

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/storage"
)

// FunctionKind distinguishes AQL UDFs (whose bodies the compiler can inline
// and reason about) from external "Java" UDFs (opaque black boxes resolved
// from a registry at runtime).
type FunctionKind int

// Function kinds.
const (
	// AQLFunction is declared in AQL; its body is stored and inlined.
	AQLFunction FunctionKind = iota
	// ExternalFunction is an installed library function, referred to by
	// its qualified "library#name" and treated as a black box.
	ExternalFunction
)

// FunctionDecl is a stored user-defined function.
type FunctionDecl struct {
	// Dataverse and Name identify the function. For external functions
	// Name carries the "library#function" form.
	Dataverse, Name string
	// Kind selects AQL or external.
	Kind FunctionKind
	// Params names the formal parameters (AQL functions only).
	Params []string
	// Body is the AQL expression text (AQL functions only).
	Body string
}

// QualifiedName returns "dataverse.name".
func (f *FunctionDecl) QualifiedName() string { return f.Dataverse + "." + f.Name }

// FeedDecl is a stored feed definition. A primary feed names a datasource
// adaptor with configuration; a secondary feed names its parent feed.
// Either kind may carry a pre-processing function (§4.2, §4.3).
type FeedDecl struct {
	// Dataverse and Name identify the feed.
	Dataverse, Name string
	// Primary distinguishes primary feeds (adaptor-sourced) from
	// secondary feeds (parent-sourced).
	Primary bool
	// AdaptorName and AdaptorConfig configure a primary feed's adaptor.
	AdaptorName   string
	AdaptorConfig map[string]string
	// SourceFeed names a secondary feed's parent (unqualified, same
	// dataverse).
	SourceFeed string
	// Function names the UDF applied to each record, or "".
	Function string
}

// QualifiedName returns "dataverse.name".
func (f *FeedDecl) QualifiedName() string { return f.Dataverse + "." + f.Name }

// PolicyDecl is an ingestion policy: a named collection of parameters
// (Table 4.1) controlling runtime behaviour under failures and congestion.
type PolicyDecl struct {
	// Name identifies the policy.
	Name string
	// Params holds the policy parameters.
	Params map[string]string
}

// Param returns the named parameter or def if unset.
func (p *PolicyDecl) Param(name, def string) string {
	if v, ok := p.Params[name]; ok {
		return v
	}
	return def
}

// Bool reports the named parameter interpreted as a boolean.
func (p *PolicyDecl) Bool(name string, def bool) bool {
	v, ok := p.Params[name]
	if !ok {
		return def
	}
	return strings.EqualFold(v, "true")
}

// Clone returns a deep copy with name overridden.
func (p *PolicyDecl) Clone(name string) *PolicyDecl {
	params := make(map[string]string, len(p.Params))
	for k, v := range p.Params {
		params[k] = v
	}
	return &PolicyDecl{Name: name, Params: params}
}

// Policy parameter names from Table 4.1 (and §5.6, §6.1, §7.3).
const (
	ParamSpill            = "excess.records.spill"
	ParamDiscard          = "excess.records.discard"
	ParamThrottle         = "excess.records.throttle"
	ParamElastic          = "excess.records.elastic"
	ParamRecoverSoft      = "recover.soft.failure"
	ParamRecoverHard      = "recover.hard.failure"
	ParamAtLeastOnce      = "at.least.once.enabled"
	ParamMaxSpillSize     = "max.spill.size.on.disk"
	ParamSoftFailureLog   = "soft.failure.log.data"
	ParamMaxSoftFailures  = "max.consecutive.soft.failures"
	ParamMemoryBudget     = "memory.budget.records"
	ParamThrottleMinRatio = "throttle.min.ratio"
	// ParamPriority declares the feed's governor priority class
	// ("low", "normal", "high") — beyond the paper, used by the node-wide
	// ingestion governor to decide shed order under memory pressure.
	ParamPriority = "ingestion.priority"
)

// BuiltinPolicies returns the paper's built-in ingestion policies
// (Table 4.2). The returned decls are fresh copies.
func BuiltinPolicies() []*PolicyDecl {
	base := func(name string, extra map[string]string) *PolicyDecl {
		params := map[string]string{
			ParamSpill:           "false",
			ParamDiscard:         "false",
			ParamThrottle:        "false",
			ParamElastic:         "false",
			ParamRecoverSoft:     "true",
			ParamRecoverHard:     "true",
			ParamAtLeastOnce:     "false",
			ParamSoftFailureLog:  "false",
			ParamMaxSoftFailures: "100",
		}
		for k, v := range extra {
			params[k] = v
		}
		return &PolicyDecl{Name: name, Params: params}
	}
	return []*PolicyDecl{
		base("Basic", nil),
		base("Spill", map[string]string{ParamSpill: "true"}),
		base("Discard", map[string]string{ParamDiscard: "true"}),
		base("Throttle", map[string]string{ParamThrottle: "true"}),
		base("Elastic", map[string]string{ParamElastic: "true"}),
		base("FaultTolerant", map[string]string{ParamRecoverHard: "true", ParamRecoverSoft: "true"}),
		base("AtLeastOnce", map[string]string{ParamAtLeastOnce: "true"}),
	}
}

// Catalog is the cluster's metadata store. Safe for concurrent use.
type Catalog struct {
	mu         sync.RWMutex
	dataverses map[string]bool
	datatypes  map[string]adm.Type
	datasets   map[string]*storage.Dataset
	feeds      map[string]*FeedDecl
	functions  map[string]*FunctionDecl
	policies   map[string]*PolicyDecl
}

// NewCatalog creates a catalog pre-populated with the Metadata dataverse,
// builtin primitive types, and builtin ingestion policies.
func NewCatalog() *Catalog {
	c := &Catalog{
		dataverses: map[string]bool{"Metadata": true},
		datatypes:  make(map[string]adm.Type),
		datasets:   make(map[string]*storage.Dataset),
		feeds:      make(map[string]*FeedDecl),
		functions:  make(map[string]*FunctionDecl),
		policies:   make(map[string]*PolicyDecl),
	}
	for _, p := range BuiltinPolicies() {
		c.policies[p.Name] = p
	}
	return c
}

// CreateDataverse registers a dataverse.
func (c *Catalog) CreateDataverse(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "" {
		return fmt.Errorf("metadata: empty dataverse name")
	}
	c.dataverses[name] = true
	return nil
}

// HasDataverse reports whether the dataverse exists.
func (c *Catalog) HasDataverse(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dataverses[name]
}

func qual(dataverse, name string) string { return dataverse + "." + name }

// CreateType registers a datatype in a dataverse.
func (c *Catalog) CreateType(dataverse, name string, t adm.Type) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := qual(dataverse, name)
	if _, exists := c.datatypes[key]; exists {
		return fmt.Errorf("metadata: type %s already exists", key)
	}
	c.datatypes[key] = t
	return nil
}

// Type resolves a type name in a dataverse, falling back to builtin
// primitive names (string, int64, double, ...).
func (c *Catalog) Type(dataverse, name string) (adm.Type, bool) {
	c.mu.RLock()
	if t, ok := c.datatypes[qual(dataverse, name)]; ok {
		c.mu.RUnlock()
		return t, true
	}
	c.mu.RUnlock()
	switch name {
	case "string":
		return adm.TString, true
	case "int32", "int64", "int":
		return adm.TInt64, true
	case "double", "float":
		return adm.TDouble, true
	case "boolean":
		return adm.TBoolean, true
	case "datetime":
		return adm.TDatetime, true
	case "point":
		return adm.TPoint, true
	case "rectangle":
		return adm.TRectangle, true
	}
	return nil, false
}

// CreateDataset registers a dataset declaration.
func (c *Catalog) CreateDataset(ds *storage.Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := ds.QualifiedName()
	if _, exists := c.datasets[key]; exists {
		return fmt.Errorf("metadata: dataset %s already exists", key)
	}
	c.datasets[key] = ds
	return nil
}

// Dataset resolves a dataset by dataverse and name.
func (c *Catalog) Dataset(dataverse, name string) (*storage.Dataset, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[qual(dataverse, name)]
	return ds, ok
}

// AddIndex attaches a secondary index declaration to an existing dataset.
// It must be called before any partition of the dataset is opened.
func (c *Catalog) AddIndex(dataverse, dataset string, ix storage.IndexDecl) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.datasets[qual(dataverse, dataset)]
	if !ok {
		return fmt.Errorf("metadata: unknown dataset %s.%s", dataverse, dataset)
	}
	if _, dup := ds.Index(ix.Name); dup {
		return fmt.Errorf("metadata: index %s already exists on %s", ix.Name, ds.QualifiedName())
	}
	ds.Indexes = append(ds.Indexes, ix)
	return nil
}

// CreateFeed registers a feed declaration.
func (c *Catalog) CreateFeed(f *FeedDecl) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := f.QualifiedName()
	if _, exists := c.feeds[key]; exists {
		return fmt.Errorf("metadata: feed %s already exists", key)
	}
	if !f.Primary {
		if _, ok := c.feeds[qual(f.Dataverse, f.SourceFeed)]; !ok {
			return fmt.Errorf("metadata: secondary feed %s references unknown parent %s", key, f.SourceFeed)
		}
	}
	c.feeds[key] = f
	return nil
}

// Feed resolves a feed by dataverse and name.
func (c *Catalog) Feed(dataverse, name string) (*FeedDecl, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.feeds[qual(dataverse, name)]
	return f, ok
}

// FeedLineage returns the feed's ancestor chain [feed, parent, grandparent,
// ..., primary].
func (c *Catalog) FeedLineage(dataverse, name string) ([]*FeedDecl, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var chain []*FeedDecl
	seen := map[string]bool{}
	cur := name
	for {
		f, ok := c.feeds[qual(dataverse, cur)]
		if !ok {
			return nil, fmt.Errorf("metadata: unknown feed %s.%s", dataverse, cur)
		}
		if seen[cur] {
			return nil, fmt.Errorf("metadata: feed lineage cycle at %s", cur)
		}
		seen[cur] = true
		chain = append(chain, f)
		if f.Primary {
			return chain, nil
		}
		cur = f.SourceFeed
	}
}

// CreateFunction registers a user-defined function.
func (c *Catalog) CreateFunction(f *FunctionDecl) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := f.QualifiedName()
	if _, exists := c.functions[key]; exists {
		return fmt.Errorf("metadata: function %s already exists", key)
	}
	c.functions[key] = f
	return nil
}

// Function resolves a function by dataverse and name.
func (c *Catalog) Function(dataverse, name string) (*FunctionDecl, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.functions[qual(dataverse, name)]
	return f, ok
}

// CreatePolicy registers an ingestion policy, typically derived from a
// builtin via PolicyDecl.Clone (Listing 4.6).
func (c *Catalog) CreatePolicy(p *PolicyDecl) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.policies[p.Name]; exists {
		return fmt.Errorf("metadata: policy %s already exists", p.Name)
	}
	c.policies[p.Name] = p
	return nil
}

// Policy resolves a policy by name.
func (c *Catalog) Policy(name string) (*PolicyDecl, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.policies[name]
	return p, ok
}

// DropDataset removes a dataset declaration.
func (c *Catalog) DropDataset(dataverse, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := qual(dataverse, name)
	if _, ok := c.datasets[key]; !ok {
		return fmt.Errorf("metadata: unknown dataset %s", key)
	}
	delete(c.datasets, key)
	return nil
}

// DropFeed removes a feed declaration; feeds with declared children cannot
// be dropped.
func (c *Catalog) DropFeed(dataverse, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := qual(dataverse, name)
	if _, ok := c.feeds[key]; !ok {
		return fmt.Errorf("metadata: unknown feed %s", key)
	}
	for _, f := range c.feeds {
		if !f.Primary && f.Dataverse == dataverse && f.SourceFeed == name {
			return fmt.Errorf("metadata: feed %s has dependent secondary feed %s", key, f.Name)
		}
	}
	delete(c.feeds, key)
	return nil
}

// DropFunction removes a function declaration.
func (c *Catalog) DropFunction(dataverse, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := qual(dataverse, name)
	if _, ok := c.functions[key]; !ok {
		return fmt.Errorf("metadata: unknown function %s", key)
	}
	delete(c.functions, key)
	return nil
}

// DropPolicy removes a non-builtin ingestion policy.
func (c *Catalog) DropPolicy(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.policies[name]; !ok {
		return fmt.Errorf("metadata: unknown policy %s", name)
	}
	for _, b := range BuiltinPolicies() {
		if b.Name == name {
			return fmt.Errorf("metadata: builtin policy %s cannot be dropped", name)
		}
	}
	delete(c.policies, name)
	return nil
}

// Datasets lists every dataset, sorted by qualified name.
func (c *Catalog) Datasets() []*storage.Dataset {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*storage.Dataset, 0, len(c.datasets))
	for _, ds := range c.datasets {
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QualifiedName() < out[j].QualifiedName() })
	return out
}

// Feeds lists every feed, sorted by qualified name.
func (c *Catalog) Feeds() []*FeedDecl {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*FeedDecl, 0, len(c.feeds))
	for _, f := range c.feeds {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QualifiedName() < out[j].QualifiedName() })
	return out
}
