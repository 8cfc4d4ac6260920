package asterixfeeds

import (
	"errors"
	"fmt"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/aql"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/storage"
)

// execInsert implements the conventional `insert into dataset D ( ... )`
// statement: the body expression is evaluated, and — exactly like AsterixDB
// (§5.7.1) — the insert is compiled into a Hyracks job whose source operator
// emits the records and whose store operators, co-located with the dataset's
// partitions, perform the indexed inserts. Every statement therefore pays
// the compile/schedule/cleanup overhead that the batch-inserts experiment
// measures against feeds.
func (in *Instance) execInsert(st *aql.InsertInto) (int, error) {
	ds, ok := in.catalog.Dataset(in.Dataverse(), st.Dataset)
	if !ok {
		return 0, fmt.Errorf("asterixfeeds: unknown dataset %s", st.Dataset)
	}
	ev := in.evaluator()
	v, err := ev.Eval(st.Body, nil)
	if err != nil {
		return 0, err
	}
	var recs []*adm.Record
	collect := func(item adm.Value) error {
		rec, ok := item.(*adm.Record)
		if !ok {
			return fmt.Errorf("asterixfeeds: insert body produced %s, want record", item.Tag())
		}
		recs = append(recs, rec)
		return nil
	}
	switch t := v.(type) {
	case *adm.OrderedList:
		for _, item := range t.Items {
			if err := collect(item); err != nil {
				return 0, err
			}
		}
	default:
		if err := collect(v); err != nil {
			return 0, err
		}
	}
	if len(recs) == 0 {
		return 0, nil
	}
	return len(recs), in.runInsertJob(ds, recs)
}

// InsertRecords inserts records into the named dataset (active dataverse)
// through a single compiled insert job; it is the programmatic equivalent
// of one insert statement over a batch.
func (in *Instance) InsertRecords(dataset string, recs []*adm.Record) error {
	ds, ok := in.catalog.Dataset(in.Dataverse(), dataset)
	if !ok {
		return fmt.Errorf("asterixfeeds: unknown dataset %s", dataset)
	}
	if len(recs) == 0 {
		return nil
	}
	return in.runInsertJob(ds, recs)
}

// runInsertJob builds, schedules, and awaits one insert job.
func (in *Instance) runInsertJob(ds *storage.Dataset, recs []*adm.Record) error {
	spec := &hyracks.JobSpec{Name: "insert:" + ds.QualifiedName()}
	src := spec.AddOperator(&insertSourceOp{recs: recs}, hyracks.CountConstraint(1))
	sink := spec.AddOperator(&insertStoreOp{ds: ds}, hyracks.LocationConstraint(ds.NodeGroup...))
	spec.Connect(src, sink, hyracks.MToNHashPartition, ds.KeyHashFunc())
	job, err := in.cluster.StartJob(spec)
	if err != nil {
		return err
	}
	return job.Wait()
}

// insertSourceOp emits a fixed batch of records and finishes.
type insertSourceOp struct {
	recs []*adm.Record
}

// Name implements hyracks.OperatorDescriptor.
func (o *insertSourceOp) Name() string { return "InsertSource" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *insertSourceOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return &insertSourceRuntime{op: o, ctx: ctx, out: out}, nil
}

type insertSourceRuntime struct {
	op  *insertSourceOp
	ctx *hyracks.TaskContext
	out hyracks.Writer
}

func (r *insertSourceRuntime) Open() error                    { return r.out.Open() }
func (r *insertSourceRuntime) NextFrame(*hyracks.Frame) error { return errors.New("source") }
func (r *insertSourceRuntime) Close() error                   { return r.out.Close() }
func (r *insertSourceRuntime) Fail(err error)                 { r.out.Fail(err) }

// Run implements hyracks.SourceRuntime.
func (r *insertSourceRuntime) Run() error {
	defer r.out.Close()
	const frameCap = 128
	f := hyracks.NewFrame(frameCap)
	for _, rec := range r.op.recs {
		select {
		case <-r.ctx.Canceled:
			return nil
		default:
		}
		f.Append(adm.Encode(rec))
		if f.Len() >= frameCap {
			if err := r.out.NextFrame(f); err != nil {
				return err
			}
			f = hyracks.NewFrame(frameCap)
		}
	}
	if f.Len() > 0 {
		return r.out.NextFrame(f)
	}
	return nil
}

// insertStoreOp inserts incoming records into the local dataset partition,
// updating its secondary indexes; unlike the feed store operator it has no
// soft-failure sandbox: a bad record fails the statement, as a conventional
// insert would.
type insertStoreOp struct {
	ds *storage.Dataset
}

// Name implements hyracks.OperatorDescriptor.
func (o *insertStoreOp) Name() string { return "IndexInsert(" + o.ds.QualifiedName() + ")" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *insertStoreOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	sm, _ := ctx.Service(storage.ServiceName).(*storage.Manager)
	if sm == nil {
		return nil, fmt.Errorf("asterixfeeds: node %s has no storage manager", ctx.NodeID)
	}
	part, err := sm.OpenPartition(o.ds)
	if err != nil {
		return nil, err
	}
	return &insertStoreRuntime{out: out, part: part}, nil
}

type insertStoreRuntime struct {
	out  hyracks.Writer
	part *storage.Partition
}

func (r *insertStoreRuntime) Open() error { return r.out.Open() }

func (r *insertStoreRuntime) NextFrame(f *hyracks.Frame) error {
	// Frame-at-a-time: validate, key, and batch-insert the whole frame in
	// one pass per index (group commit). InsertFrame validates every record
	// before mutating anything, so a bad record fails the statement without
	// a partial prefix landing in the indexes.
	if err := r.part.InsertFrame(f.Records); err != nil {
		return err
	}
	return r.out.NextFrame(f)
}

func (r *insertStoreRuntime) Close() error   { return r.out.Close() }
func (r *insertStoreRuntime) Fail(err error) { r.out.Fail(err) }
