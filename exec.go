package asterixfeeds

import (
	"fmt"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/aql"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/storage"
)

// Result is the outcome of one executed statement.
type Result struct {
	// Kind labels the statement ("create-type", "query", ...).
	Kind string
	// Message is a human-readable status for DDL statements.
	Message string
	// Value carries a query's result (an ordered list) or an insert's
	// record count.
	Value adm.Value
}

// Exec parses and executes a sequence of AQL statements against the
// instance, returning one Result per statement.
func (in *Instance) Exec(src string) ([]Result, error) {
	stmts, err := aql.Parse(src)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(stmts))
	ddl := false
	for _, st := range stmts {
		r, err := in.execStatement(st)
		if err != nil {
			if ddl {
				in.saveCatalog() //nolint:errcheck // best effort
			}
			return out, err
		}
		switch st.(type) {
		case *aql.Query, *aql.InsertInto, *aql.LoadDataset, *aql.UseDataverse, *aql.ShowFeeds:
		default:
			ddl = true
		}
		out = append(out, r)
	}
	if ddl {
		if err := in.saveCatalog(); err != nil {
			return out, fmt.Errorf("asterixfeeds: persisting catalog: %w", err)
		}
	}
	return out, nil
}

// MustExec is Exec for tests and examples: it panics on error.
func (in *Instance) MustExec(src string) []Result {
	out, err := in.Exec(src)
	if err != nil {
		panic(err)
	}
	return out
}

// Query executes a single query expression and returns its value.
func (in *Instance) Query(src string) (adm.Value, error) {
	e, err := aql.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	ev := in.evaluator()
	return ev.Eval(e, nil)
}

func (in *Instance) evaluator() *aql.Evaluator {
	return &aql.Evaluator{
		Source: in,
		Functions: func(name string) (func([]adm.Value) (adm.Value, error), bool) {
			decl, ok := in.catalog.Function(in.Dataverse(), name)
			if !ok || decl.Kind != metadata.AQLFunction {
				return nil, false
			}
			cf, err := aql.CompileFunction(decl, in, func(n string) (*metadata.FunctionDecl, bool) {
				return in.catalog.Function(in.Dataverse(), n)
			})
			if err != nil {
				return nil, false
			}
			return func(args []adm.Value) (adm.Value, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("asterixfeeds: %s expects 1 argument", name)
				}
				rec, ok := args[0].(*adm.Record)
				if !ok {
					return nil, fmt.Errorf("asterixfeeds: %s expects a record argument", name)
				}
				return cf.ApplyValue(rec)
			}, true
		},
	}
}

func (in *Instance) execStatement(st aql.Statement) (Result, error) {
	switch s := st.(type) {
	case *aql.UseDataverse:
		// Lenient like the paper's listings: using an undeclared
		// dataverse creates it.
		if !in.catalog.HasDataverse(s.Name) {
			if err := in.catalog.CreateDataverse(s.Name); err != nil {
				return Result{}, err
			}
		}
		in.mu.Lock()
		in.dataverse = s.Name
		in.mu.Unlock()
		return Result{Kind: "use", Message: "dataverse " + s.Name}, nil

	case *aql.CreateDataverse:
		if in.catalog.HasDataverse(s.Name) {
			if s.IfNotExists {
				return Result{Kind: "create-dataverse", Message: "exists"}, nil
			}
			return Result{}, fmt.Errorf("asterixfeeds: dataverse %s already exists", s.Name)
		}
		if err := in.catalog.CreateDataverse(s.Name); err != nil {
			return Result{}, err
		}
		return Result{Kind: "create-dataverse", Message: "created " + s.Name}, nil

	case *aql.CreateType:
		dv := in.Dataverse()
		fields := make([]adm.Field, 0, len(s.Fields))
		for _, f := range s.Fields {
			base, ok := in.catalog.Type(dv, f.TypeName)
			if !ok {
				return Result{}, fmt.Errorf("asterixfeeds: unknown type %q in field %q", f.TypeName, f.Name)
			}
			t := base
			if f.List {
				t = &adm.OrderedListType{Item: base}
			}
			fields = append(fields, adm.Field{Name: f.Name, Type: t, Optional: f.Optional})
		}
		rt, err := adm.NewRecordType(s.Name, s.Open, fields)
		if err != nil {
			return Result{}, err
		}
		if err := in.catalog.CreateType(dv, s.Name, rt); err != nil {
			return Result{}, err
		}
		return Result{Kind: "create-type", Message: "created " + s.Name}, nil

	case *aql.CreateDataset:
		dv := in.Dataverse()
		t, ok := in.catalog.Type(dv, s.TypeName)
		if !ok {
			return Result{}, fmt.Errorf("asterixfeeds: unknown type %q", s.TypeName)
		}
		rt, ok := t.(*adm.RecordType)
		if !ok {
			return Result{}, fmt.Errorf("asterixfeeds: dataset type %q is not a record type", s.TypeName)
		}
		ds := &storage.Dataset{
			Dataverse:  dv,
			Name:       s.Name,
			Type:       rt,
			PrimaryKey: s.PrimaryKey,
			// Default nodegroup: every node alive at creation (§3.1.2).
			NodeGroup:  in.cluster.AliveNodes(),
			Replicated: s.Replicated,
		}
		if err := in.catalog.CreateDataset(ds); err != nil {
			return Result{}, err
		}
		return Result{Kind: "create-dataset", Message: "created " + ds.QualifiedName()}, nil

	case *aql.CreateIndex:
		kind := storage.BTree
		if s.Kind == "rtree" {
			kind = storage.RTree
		}
		err := in.catalog.AddIndex(in.Dataverse(), s.Dataset, storage.IndexDecl{
			Name: s.Name, Field: s.Field, Kind: kind,
		})
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: "create-index", Message: "created " + s.Name}, nil

	case *aql.CreateFeed:
		decl := &metadata.FeedDecl{
			Dataverse:     in.Dataverse(),
			Name:          s.Name,
			Primary:       !s.Secondary,
			AdaptorName:   s.Adaptor,
			AdaptorConfig: s.Config,
			SourceFeed:    s.SourceFeed,
			Function:      s.ApplyFunction,
		}
		if decl.Primary {
			if _, ok := in.feeds.Adaptors().Lookup(s.Adaptor); !ok {
				return Result{}, fmt.Errorf("asterixfeeds: unknown adaptor %q", s.Adaptor)
			}
		}
		if err := in.catalog.CreateFeed(decl); err != nil {
			return Result{}, err
		}
		return Result{Kind: "create-feed", Message: "created " + decl.QualifiedName()}, nil

	case *aql.CreateFunction:
		decl := &metadata.FunctionDecl{
			Dataverse: in.Dataverse(),
			Name:      s.Name,
			Kind:      metadata.AQLFunction,
			Params:    s.Params,
			Body:      s.BodyText,
		}
		// Compile eagerly to surface errors at declaration time.
		if len(s.Params) == 1 {
			if _, err := aql.CompileFunction(decl, in, nil); err != nil {
				return Result{}, err
			}
		}
		if err := in.catalog.CreateFunction(decl); err != nil {
			return Result{}, err
		}
		return Result{Kind: "create-function", Message: "created " + s.Name}, nil

	case *aql.CreatePolicy:
		base, ok := in.catalog.Policy(s.From)
		if !ok {
			return Result{}, fmt.Errorf("asterixfeeds: unknown base policy %q", s.From)
		}
		custom := base.Clone(s.Name)
		for k, v := range s.Params {
			custom.Params[k] = v
		}
		if err := in.catalog.CreatePolicy(custom); err != nil {
			return Result{}, err
		}
		return Result{Kind: "create-policy", Message: "created " + s.Name}, nil

	case *aql.ConnectFeed:
		conn, err := in.feeds.ConnectFeed(in.Dataverse(), s.Feed, s.Dataset, s.Policy)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: "connect-feed", Message: conn.ID() + " connected"}, nil

	case *aql.DisconnectFeed:
		if err := in.feeds.DisconnectFeed(in.Dataverse(), s.Feed, s.Dataset); err != nil {
			return Result{}, err
		}
		return Result{Kind: "disconnect-feed", Message: s.Feed + " disconnected"}, nil

	case *aql.Drop:
		if err := in.execDrop(s); err != nil {
			return Result{}, err
		}
		return Result{Kind: "drop-" + s.Kind, Message: "dropped " + s.Name}, nil

	case *aql.LoadDataset:
		n, err := in.LoadDataset(s.Dataset, s.Path)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: "load", Value: adm.Int64(int64(n)),
			Message: fmt.Sprintf("loaded %d record(s)", n)}, nil

	case *aql.InsertInto:
		n, err := in.execInsert(s)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: "insert", Value: adm.Int64(int64(n)),
			Message: fmt.Sprintf("inserted %d record(s)", n)}, nil

	case *aql.Query:
		ev := in.evaluator()
		v, err := ev.Eval(s.Body, nil)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: "query", Value: v}, nil

	case *aql.ShowFeeds:
		return Result{Kind: "show-feeds", Value: in.showFeedsValue(),
			Message: fmt.Sprintf("%d feed connection(s)", len(in.feeds.Connections()))}, nil
	}
	return Result{}, fmt.Errorf("asterixfeeds: unsupported statement %T", st)
}

// showFeedsValue renders every connection's FeedActivity snapshot as an ADM
// list of records, so `show feeds` output flows through the same result
// machinery (console JSON, REPL printing) as a query.
func (in *Instance) showFeedsValue() *adm.OrderedList {
	acts := in.feeds.FeedActivity()
	items := make([]adm.Value, 0, len(acts))
	for _, a := range acts {
		items = append(items, feedActivityRecord(a))
	}
	return &adm.OrderedList{Items: items}
}

// feedActivityRecord is one connection's row of `show feeds`: FeedActivity's
// JSON keys with their values, except the per-partition breakdown and the
// elastic-event log, and with the latency pair in milliseconds.
func feedActivityRecord(a core.FeedActivity) *adm.Record {
	names := []string{
		"connection", "feed", "dataset", "policy", "priority", "state",
		"intakeNodes", "computeNodes", "storeNodes", "computeCount",
		"collectedTotal", "computedTotal", "persistedTotal",
		"collectRate", "computeRate", "persistRate",
		"backlog", "pendingAcks", "softFailures", "storeErrors",
		"replayed", "replayDropped", "discarded", "throttledOut", "spilledTotal",
		"spilledBytes", "spillErrors", "governorShed", "latencyP50Ms", "latencyP99Ms",
	}
	values := []adm.Value{
		adm.String(a.Connection), adm.String(a.Feed), adm.String(a.Dataset),
		adm.String(a.Policy), adm.String(a.Priority), adm.String(a.State),
		stringList(a.IntakeNodes), stringList(a.ComputeNodes), stringList(a.StoreNodes),
		adm.Int64(int64(a.ComputeCount)),
		adm.Int64(a.CollectedTotal), adm.Int64(a.ComputedTotal), adm.Int64(a.PersistedTotal),
		adm.Double(a.CollectRate), adm.Double(a.ComputeRate), adm.Double(a.PersistRate),
		adm.Int64(int64(a.Backlog)), adm.Int64(int64(a.PendingAcks)),
		adm.Int64(a.SoftFailures), adm.Int64(a.StoreErrors),
		adm.Int64(a.Replayed), adm.Int64(a.ReplayDropped), adm.Int64(a.Discarded), adm.Int64(a.ThrottledOut),
		adm.Int64(a.SpilledTotal), adm.Int64(a.SpilledBytes), adm.Int64(a.SpillErrors), adm.Int64(a.GovernorShed),
		adm.Double(float64(a.LatencyP50) / 1e6), adm.Double(float64(a.LatencyP99) / 1e6),
	}
	if a.Error != "" {
		names = append(names, "error")
		values = append(values, adm.String(a.Error))
	}
	return adm.MustRecord(names, values)
}

func stringList(ss []string) *adm.OrderedList {
	items := make([]adm.Value, len(ss))
	for i, s := range ss {
		items[i] = adm.String(s)
	}
	return &adm.OrderedList{Items: items}
}

// execDrop removes a catalog object, refusing while feed connections still
// use it.
func (in *Instance) execDrop(s *aql.Drop) error {
	dv := in.Dataverse()
	usesDataset := func(name string) bool {
		for _, c := range in.feeds.Connections() {
			st := c.State()
			active := st == core.ConnConnected || st == core.ConnRecovering || st == core.ConnDisconnectedKeepAlive
			if active && c.Dataset().Dataverse == dv && c.Dataset().Name == name {
				return true
			}
		}
		return false
	}
	usesFeed := func(name string) bool {
		for _, c := range in.feeds.Connections() {
			st := c.State()
			active := st == core.ConnConnected || st == core.ConnRecovering || st == core.ConnDisconnectedKeepAlive
			if active && c.Feed().Dataverse == dv && c.Feed().Name == name {
				return true
			}
		}
		return false
	}
	switch s.Kind {
	case "dataset":
		if usesDataset(s.Name) {
			return fmt.Errorf("asterixfeeds: dataset %s has connected feeds; disconnect first", s.Name)
		}
		if ds, ok := in.catalog.Dataset(dv, s.Name); ok {
			if err := in.removeDatasetStorage(ds); err != nil {
				return fmt.Errorf("asterixfeeds: dropping dataset %s: %w", s.Name, err)
			}
		}
		return in.catalog.DropDataset(dv, s.Name)
	case "feed":
		if usesFeed(s.Name) {
			return fmt.Errorf("asterixfeeds: feed %s is connected; disconnect first", s.Name)
		}
		return in.catalog.DropFeed(dv, s.Name)
	case "function":
		return in.catalog.DropFunction(dv, s.Name)
	case "policy":
		return in.catalog.DropPolicy(s.Name)
	}
	return fmt.Errorf("asterixfeeds: unknown drop kind %q", s.Kind)
}

// removeDatasetStorage deletes every partition of ds, primary and replica,
// from every node: an open partition is closed first, and its directory goes
// whether it was open or not. A partition may have moved since it was
// written (a promotion), so every node is asked for every index. Neither a
// later dataset of the same name nor a restart then finds the old records.
func (in *Instance) removeDatasetStorage(ds *storage.Dataset) error {
	for _, node := range in.cluster.AllNodes() {
		sm, _ := in.cluster.Node(node).Service(storage.ServiceName).(*storage.Manager)
		if sm == nil {
			continue
		}
		for i := range ds.NodeGroup {
			for _, replica := range []bool{false, true} {
				if err := sm.RemovePartitionIdx(ds, i, replica); err != nil {
					return fmt.Errorf("node %s partition %d: %w", node, i, err)
				}
			}
		}
	}
	return nil
}
