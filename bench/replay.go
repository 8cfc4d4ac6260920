package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"asterixfeeds"
	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/aql"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/storage"
)

const (
	// replayRecords is how many records of the workload's stream the layer
	// replay pushes through each layer; only the smoke test uses fewer.
	replayRecords = 65536
	// frameRecords is the frame capacity of the feed runtime; the replay
	// calls every layer a frame at a time and records a span per frame.
	frameRecords = 128
	// replayCacheBytes is the block cache of the replay's standalone
	// storage manager and trees: an eighth of a node's, so that 65 536
	// records are several times the cache as a node's dataset is.
	replayCacheBytes = lsm.DefaultBlockCacheBytes / 8
	// replayReads is the number of reads per read stage.
	replayReads = 16384
	// replayHot is the size of the replay's hot key set: each key sits in a
	// block of its own, and 64 blocks fit the replay's cache twice over.
	replayHot = 64
)

// replay prices each layer from outside: a single goroutine pushes the
// same records through the layer's public functions, one stage over the
// whole input at a time.
type replay struct {
	t    *tracer
	root int
	n    int // records replayed
	p    *pool
	dir  string
	rnd  *rand.Rand
	v    map[string]float64

	ds      *storage.Dataset // Tweets with both indexes
	udf     *metadata.FunctionDecl
	recs    []*adm.Record
	enc     [][]byte
	keys    [][]byte // encoded primary keys
	created []adm.Value
}

// frames calls fn for every frame-sized range of n items inside one stage
// span, with a child span per call, and returns the time spent in the calls.
func (rp *replay) frames(stage string, n int, fn func(lo, hi int) error) (time.Duration, error) {
	parent := rp.t.begin(stage, rp.root)
	defer rp.t.end(parent)
	var total time.Duration
	for lo := 0; lo < n; lo += frameRecords {
		hi := lo + frameRecords
		if hi > n {
			hi = n
		}
		id := rp.t.begin(stage+".frame", parent)
		err := fn(lo, hi)
		total += rp.t.end(id)
		if err != nil {
			return total, fmt.Errorf("%s: %w", stage, err)
		}
	}
	return total, nil
}

// perRecord runs a per-frame stage and stores its cost per item under name.
func (rp *replay) perRecord(name string, n int, fn func(lo, hi int) error) error {
	d, err := rp.frames(name, n, fn)
	rp.v[name] = float64(d) / float64(n)
	return err
}

// runReplay replays the first n records of the stream of seed and returns
// the layer metrics.
func runReplay(t *tracer, seed int64, n int, dir string) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rp := &replay{t: t, n: n, p: newPool(seed), dir: dir, rnd: rand.New(rand.NewSource(seed)), v: map[string]float64{}}
	rp.root = t.begin("replay", 0)
	defer t.end(rp.root)
	if err := rp.declare(); err != nil {
		return nil, err
	}
	for _, stage := range []func() error{
		rp.generator, rp.adm, rp.aqlUDF, rp.joints, rp.admission, rp.hop,
		rp.storageWrites, rp.lsmWrites, rp.lsmReads, rp.walSync,
	} {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	return rp.v, nil
}

// declare runs the DDL of the indexed cascade through a scratch instance so
// that the replay times exactly the types, indexes and UDF the workloads
// declare.
func (rp *replay) declare() error {
	dir := filepath.Join(rp.dir, "declare")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	inst, err := asterixfeeds.Start(asterixfeeds.Config{DataDir: dir})
	if err != nil {
		return err
	}
	defer inst.Close()
	all := spec{indexed: true, cascade: true}
	if _, err := inst.Exec("create dataverse feeds;\n" + all.schemaDDL()); err != nil {
		return err
	}
	ds, ok := inst.Catalog().Dataset(dataverse, tweets)
	if !ok {
		return errors.New("replay: Tweets was not declared")
	}
	clone := *ds
	clone.NodeGroup = []string{"replay"}
	rp.ds = &clone
	if rp.udf, ok = inst.Catalog().Function(dataverse, "addHashTags"); !ok {
		return errors.New("replay: addHashTags was not declared")
	}
	return nil
}

// plain is the replay's dataset without its secondary indexes.
func (rp *replay) plain() *storage.Dataset {
	ds := *rp.ds
	ds.Name, ds.Indexes = "Plain", nil
	return &ds
}

// generator prices the benchmark's own sender: patching a pooled line and
// writing it.
func (rp *replay) generator() error {
	w := bufio.NewWriterSize(io.Discard, 1<<16)
	d, err := rp.frames("driver.gen_us_per_record", rp.n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if _, err := w.Write(rp.p.line(i%poolSize, int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	rp.v["driver.gen_us_per_record"] = float64(d) / float64(time.Microsecond) / float64(rp.n)
	return err
}

// adm prices parse, encode, validate and decode.
func (rp *replay) adm() error {
	texts := make([]string, rp.n)
	for i := range texts {
		texts[i] = strings.TrimSpace(string(rp.p.line(i%poolSize, int64(i))))
	}
	rp.recs = make([]*adm.Record, rp.n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := rp.perRecord("adm.parse_ns_per_record", rp.n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			v, err := adm.Parse(texts[i])
			if err != nil {
				return err
			}
			rp.recs[i] = v.(*adm.Record)
		}
		return nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rp.v["adm.parse_allocs_per_record"] = float64(after.Mallocs-before.Mallocs) / float64(rp.n)

	rp.enc = make([][]byte, rp.n)
	rp.keys = make([][]byte, rp.n)
	rp.created = make([]adm.Value, rp.n)
	err = rp.perRecord("adm.encode_ns_per_record", rp.n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			rp.enc[i] = adm.Encode(rp.recs[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, rec := range rp.recs {
		if rp.keys[i], err = rp.ds.PrimaryKeyOf(rec); err != nil {
			return err
		}
		rp.created[i], _ = rec.Field("created_at")
	}
	err = rp.perRecord("adm.validate_encoded_ns_per_record", rp.n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := rp.ds.Type.ValidateEncoded(rp.enc[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return rp.perRecord("adm.decode_ns_per_record", rp.n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if _, err := adm.DecodeOne(rp.enc[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// aqlUDF prices the cascade's AQL function.
func (rp *replay) aqlUDF() error {
	fn, err := aql.CompileFunction(rp.udf, nil, nil)
	if err != nil {
		return err
	}
	return rp.perRecord("aql.udf_apply_ns_per_record", rp.n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out, err := fn.Apply(rp.recs[i])
			if err != nil {
				return err
			}
			if _, ok := out.Field("topics"); !ok {
				return errors.New("addHashTags added no topics")
			}
		}
		return nil
	})
}

// frame builds the hyracks frame of records [lo, hi).
func (rp *replay) frame(lo, hi int) *hyracks.Frame {
	f := hyracks.GetFrame(frameRecords)
	for i := lo; i < hi; i++ {
		f.Append(rp.enc[i])
	}
	return f
}

// joints prices a deposit and its dequeue through a feed joint with one
// subscriber (short-circuit mode) and with two (shared mode).
func (rp *replay) joints() error {
	var basic *core.Policy
	for _, decl := range metadata.BuiltinPolicies() {
		if decl.Name == "Basic" {
			pol, err := core.CompilePolicy(decl)
			if err != nil {
				return err
			}
			basic = pol
		}
	}
	if basic == nil {
		return errors.New("replay: no Basic policy")
	}
	fm := core.NewFeedManager("replay")
	for i, name := range []string{"core.joint_roundtrip_ns_per_record", "core.joint_shared_ns_per_record"} {
		subs := i + 1
		sig := fmt.Sprintf("replay-%d", subs)
		j := fm.CreateJoint(sig, 0)
		var ss []*core.Subscription
		for k := 0; k < subs; k++ {
			s, err := j.Subscribe(fmt.Sprintf("sub%d", k), basic, "")
			if err != nil {
				return err
			}
			ss = append(ss, s)
		}
		// The frames are built ahead of the spans: filling one costs about
		// as much as passing it through the joint.
		frames := make([]*hyracks.Frame, 0, rp.n/frameRecords)
		for lo := 0; lo < rp.n; lo += frameRecords {
			frames = append(frames, rp.frame(lo, lo+frameRecords))
		}
		err := rp.perRecord(name, rp.n, func(lo, _ int) error {
			j.Deposit(frames[lo/frameRecords])
			for _, s := range ss {
				if _, ok := s.Next(nil); !ok {
					return errors.New("subscription closed")
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fm.RemoveJoint(sig, 0)
	}
	return nil
}

// admission prices the governor's per-frame admission decision.
func (rp *replay) admission() error {
	g := governor.New("replay", governor.Config{})
	a := g.Admission("replay", governor.ClassNormal)
	bytes := int64(rp.frame(0, frameRecords).Bytes())
	return rp.perRecord("governor.admit_ns_per_frame", rp.n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if a.Admit(bytes, frameRecords) != governor.Admit {
				return errors.New("an idle governor refused a frame")
			}
		}
		return nil
	})
}

// hopSource emits the replay's frames into a job.
type hopSource struct{ rp *replay }

func (o *hopSource) Name() string { return "ReplaySource" }

func (o *hopSource) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return &hopSourceRuntime{rp: o.rp, ctx: ctx, out: out}, nil
}

type hopSourceRuntime struct {
	rp  *replay
	ctx *hyracks.TaskContext
	out hyracks.Writer
}

func (r *hopSourceRuntime) Open() error                    { return r.out.Open() }
func (r *hopSourceRuntime) NextFrame(*hyracks.Frame) error { return errors.New("source") }
func (r *hopSourceRuntime) Close() error                   { return r.out.Close() }
func (r *hopSourceRuntime) Fail(err error)                 { r.out.Fail(err) }

// Run implements hyracks.SourceRuntime.
func (r *hopSourceRuntime) Run() error {
	defer r.out.Close()
	_, err := r.rp.frames("hyracks.hop_ns_per_record", r.rp.n, func(lo, hi int) error {
		select {
		case <-r.ctx.Canceled:
			return errors.New("canceled")
		default:
		}
		return r.out.NextFrame(r.rp.frame(lo, hi))
	})
	return err
}

// hopSink counts what arrives.
type hopSink struct{ got chan int }

func (o *hopSink) Name() string { return "ReplaySink" }

func (o *hopSink) CreateRuntime(_ *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return &hopSinkRuntime{op: o, out: out}, nil
}

type hopSinkRuntime struct {
	op  *hopSink
	out hyracks.Writer
	n   int
}

func (r *hopSinkRuntime) Open() error { return r.out.Open() }

func (r *hopSinkRuntime) NextFrame(f *hyracks.Frame) error {
	r.n += f.Len()
	hyracks.PutFrame(f)
	return nil
}

func (r *hopSinkRuntime) Close() error {
	r.op.got <- r.n
	return r.out.Close()
}

func (r *hopSinkRuntime) Fail(err error) { r.out.Fail(err) }

// hop prices one connector hop: a source on one node hash-partitioning
// frames by primary key to sinks on three.
func (rp *replay) hop() error {
	nodes := []string{"r1", "r2", "r3"}
	cluster := hyracks.NewCluster(hyracks.Config{HeartbeatTimeout: heartbeatTimeout}, nodes...)
	defer cluster.Close()
	sink := &hopSink{got: make(chan int, len(nodes))} // one send per sink task
	jobSpec := &hyracks.JobSpec{Name: "replay:hop"}
	src := jobSpec.AddOperator(&hopSource{rp: rp}, hyracks.LocationConstraint(nodes[0]))
	dst := jobSpec.AddOperator(sink, hyracks.LocationConstraint(nodes...))
	jobSpec.Connect(src, dst, hyracks.MToNHashPartition, rp.ds.KeyHashFunc())
	start := time.Now()
	job, err := cluster.StartJob(jobSpec)
	if err != nil {
		return err
	}
	if err := job.Wait(); err != nil {
		return err
	}
	rp.v["hyracks.hop_ns_per_record"] = float64(time.Since(start)) / float64(rp.n)
	got := 0
	for range nodes {
		got += <-sink.got
	}
	if got != rp.n {
		return fmt.Errorf("hop delivered %d of %d records", got, rp.n)
	}
	return nil
}

// idle waits until flush and merge are idle on sm.
func idle(sm *storage.Manager) {
	for {
		if st := sm.Stats(); st.Immutables == 0 && st.CompactionDebt == 0 {
			return
		}
		time.Sleep(5 * tick)
	}
}

// insertStage times InsertFrame over the records in the given order and
// charges the CPU the process used beyond the calls, until flush and merge
// went idle, to the background.
func (rp *replay) insertStage(kind string, sm *storage.Manager, part *storage.Partition, order []int) error {
	before := readUsage()
	name := "storage.insert_frame_ns_per_record." + kind
	recs := make([][]byte, 0, frameRecords)
	calls, err := rp.frames(name, len(order), func(lo, hi int) error {
		recs = recs[:0]
		for _, i := range order[lo:hi] {
			recs = append(recs, rp.enc[i])
		}
		return part.InsertFrame(recs)
	})
	if err != nil {
		return err
	}
	idle(sm)
	after := readUsage()
	n := float64(len(order))
	rp.v[name] = float64(calls) / n
	bg := after.cpu - before.cpu - calls
	if bg < 0 {
		bg = 0
	}
	rp.v["storage.background_cpu_us_per_record."+kind] = float64(bg) / float64(time.Microsecond) / n
	return nil
}

// storageWrites prices Partition.InsertFrame without indexes, with both,
// and replacing stored records, then the partition's reads and its reopen.
func (rp *replay) storageWrites() error {
	opt := lsm.Options{BlockCache: lsm.NewBlockCache(replayCacheBytes)}
	dir := filepath.Join(rp.dir, "storage")
	sm := storage.NewManager("replay", dir, opt)
	defer func() { sm.Close() }() //nolint:errcheck // the directory is removed with the replay's
	inOrder := make([]int, rp.n)
	for i := range inOrder {
		inOrder[i] = i
	}
	plain, err := sm.OpenPartition(rp.plain())
	if err != nil {
		return err
	}
	if err := rp.insertStage("plain", sm, plain, inOrder); err != nil {
		return err
	}
	part, err := sm.OpenPartition(rp.ds)
	if err != nil {
		return err
	}
	if err := rp.insertStage("indexed", sm, part, inOrder); err != nil {
		return err
	}
	if err := part.Flush(); err != nil {
		return err
	}
	if err := rp.insertStage("upsert", sm, part, rp.rnd.Perm(rp.n)); err != nil {
		return err
	}
	if err := part.Flush(); err != nil {
		return err
	}

	lookup := func(pick func() int) func(lo, hi int) error {
		return func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				k := pick()
				_, found, err := part.Lookup([]adm.Value{adm.String(keyOf(int64(k)))})
				if err != nil || !found {
					return fmt.Errorf("lookup of record %d: found=%v err=%v", k, found, err)
				}
			}
			return nil
		}
	}
	hot := rp.rnd.Perm(rp.n)[:replayHot]
	if err := lookup(func() int { return hot[rp.rnd.Intn(replayHot)] })(0, 4*replayHot); err != nil {
		return err
	}
	if err := rp.perRecord("storage.lookup_hot_ns", replayReads, lookup(func() int { return hot[rp.rnd.Intn(replayHot)] })); err != nil {
		return err
	}
	if err := rp.perRecord("storage.lookup_cold_ns", replayReads, lookup(func() int { return rp.rnd.Intn(rp.n) })); err != nil {
		return err
	}
	const searches = 256
	err = rp.perRecord("storage.search_btree_us", searches, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			got, err := part.SearchBTree("createdIdx", rp.created[rp.rnd.Intn(rp.n)])
			if err != nil || len(got) == 0 {
				return fmt.Errorf("btree search: %d records, err=%v", len(got), err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rp.v["storage.search_btree_us"] /= 1000

	if err := sm.Close(); err != nil {
		return err
	}
	id := rp.t.begin("storage.reopen_ms", rp.root)
	sm = storage.NewManager("replay", dir, opt)
	err = sm.OpenPartitions([]storage.PartitionRef{{Dataset: rp.plain()}, {Dataset: rp.ds}}, 0)
	rp.v["storage.reopen_ms"] = float64(rp.t.end(id)) / float64(time.Millisecond)
	return err
}

// mib converts bytes to MiB.
func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// lsmWrites prices Tree.ApplyBatch, Flush and Merge on one tree whose
// memtable is large enough that nothing flushes until it is asked to.
func (rp *replay) lsmWrites() error {
	dir := filepath.Join(rp.dir, "lsm")
	tree, err := lsm.Open(lsm.Options{Dir: dir, MemtableBytes: 1 << 30})
	if err != nil {
		return err
	}
	defer tree.Close()
	var apply, flush time.Duration
	var flushed int64
	const quarters = 4 // runs to merge
	for q := 0; q < quarters; q++ {
		base := q * rp.n / quarters
		b := lsm.NewBatch(frameRecords)
		d, err := rp.frames("lsm.apply_batch_ns_per_record", rp.n/quarters, func(lo, hi int) error {
			b.Reset()
			for i := base + lo; i < base+hi; i++ {
				b.Put(rp.keys[i], rp.enc[i])
			}
			return tree.ApplyBatch(b)
		})
		if err != nil {
			return err
		}
		apply += d
		flushed += int64(tree.Stats().MemtableBytes)
		id := rp.t.begin("lsm.flush_ms_per_mib", rp.root)
		err = tree.Flush()
		flush += rp.t.end(id)
		if err != nil {
			return err
		}
	}
	rp.v["lsm.apply_batch_ns_per_record"] = float64(apply) / float64(rp.n)
	rp.v["lsm.flush_ms_per_mib"] = float64(flush) / float64(time.Millisecond) / mib(flushed)
	runBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	id := rp.t.begin("lsm.merge_ms_per_mib", rp.root)
	err = tree.Merge()
	rp.v["lsm.merge_ms_per_mib"] = float64(rp.t.end(id)) / float64(time.Millisecond) / mib(runBytes)
	return err
}

// lsmReads prices Tree.Get on the merged tree reopened behind a small
// block cache: on a hot set, on uniform keys, and on absent keys.
func (rp *replay) lsmReads() error {
	cache := lsm.NewBlockCache(replayCacheBytes)
	lm := &lsm.Metrics{}
	tree, err := lsm.Open(lsm.Options{Dir: filepath.Join(rp.dir, "lsm"), BlockCache: cache, Metrics: lm})
	if err != nil {
		return err
	}
	defer tree.Close()
	get := func(want bool, key func() []byte) func(lo, hi int) error {
		return func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				_, found, err := tree.Get(key())
				if err != nil || found != want {
					return fmt.Errorf("get: found=%v want %v, err=%v", found, want, err)
				}
			}
			return nil
		}
	}
	hot := rp.rnd.Perm(rp.n)[:replayHot]
	hotKey := func() []byte { return rp.keys[hot[rp.rnd.Intn(replayHot)]] }
	if err := get(true, hotKey)(0, 4*replayHot); err != nil {
		return err
	}
	if err := rp.perRecord("lsm.get_hot_ns", replayReads, get(true, hotKey)); err != nil {
		return err
	}
	before, reads := cache.Stats(), lm.BlockReads.Value()
	if err := rp.perRecord("lsm.get_cold_ns", replayReads, get(true, func() []byte { return rp.keys[rp.rnd.Intn(rp.n)] })); err != nil {
		return err
	}
	after := cache.Stats()
	rp.v["lsm.cache_hit_share"] = ratio(float64(after.Hits-before.Hits), float64(after.Lookups-before.Lookups))
	rp.v["lsm.block_reads_per_lookup"] = float64(lm.BlockReads.Value()-reads) / replayReads
	absent := adm.Encode(adm.String("absent"))
	return rp.perRecord("lsm.get_miss_ns", replayReads, get(false, func() []byte {
		return append(absent[:len(absent):len(absent)], byte(rp.rnd.Intn(256)), byte(rp.rnd.Intn(256)))
	}))
}

// walSync prices a write that waits for its own fsync, which no workload
// pays (SyncWAL is 0 throughout) and which is this sandbox's disk, not a
// device's.
func (rp *replay) walSync() error {
	tree, err := lsm.Open(lsm.Options{Dir: filepath.Join(rp.dir, "walsync"), SyncWAL: 1})
	if err != nil {
		return err
	}
	defer tree.Close()
	const writes = 2 * frameRecords
	err = rp.perRecord("lsm.wal_sync_us", writes, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := tree.Put(rp.keys[i], rp.enc[i]); err != nil {
				return err
			}
		}
		return nil
	})
	rp.v["lsm.wal_sync_us"] /= 1000
	return err
}

// ratio is a ÷ b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stageRuns is how many times each replayed stage runs per source record
// of a workload; lookups is lookups per source record.
func (sp spec) stageRuns(lookups float64) map[string]float64 {
	insert := "plain"
	if sp.upsert {
		insert = "upsert"
	}
	runs := map[string]float64{
		"adm.parse_ns_per_record":  1,
		"adm.encode_ns_per_record": 1,
		// Intake to store is one connector hop.
		"hyracks.hop_ns_per_record":                      1,
		"governor.admit_ns_per_frame":                    1.0 / frameRecords,
		"storage.insert_frame_ns_per_record." + insert:   1,
		"storage.background_cpu_us_per_record." + insert: 1000, // µs to ns
		"storage.lookup_cold_ns":                         lookups / 2,
		"storage.lookup_hot_ns":                          lookups / 2,
	}
	if sp.cascade {
		// Two subscribers share the joint; the secondary feed decodes,
		// applies the UDF and encodes again, crosses a second and third
		// hop (intake → compute → store), and stores into Processed.
		runs["core.joint_shared_ns_per_record"] = 1
		runs["adm.decode_ns_per_record"] = 1
		runs["aql.udf_apply_ns_per_record"] = 1
		runs["adm.encode_ns_per_record"] = 2
		runs["hyracks.hop_ns_per_record"] = 3
		runs["governor.admit_ns_per_frame"] = 2.0 / frameRecords
		runs["storage.insert_frame_ns_per_record.plain"] = 2
		runs["storage.background_cpu_us_per_record.plain"] = 2000
	} else {
		runs["core.joint_roundtrip_ns_per_record"] = 1
	}
	return runs
}

// budget attributes the run's CPU per record to the replayed stages and
// reports what is left over: the work the replay cannot reach from outside.
func budget(sp spec, v map[string]float64, lookupsPerRecord float64) {
	var ns float64
	for stage, times := range sp.stageRuns(lookupsPerRecord) {
		ns += v[stage] * times
	}
	ns += v["driver.gen_us_per_record"] * 1000
	v["budget.attributed_us_per_record"] = ns / 1000
	v["budget.unattributed_share"] = 1 - ratio(ns/1000, v["driver.cpu_us_per_record"])
}
