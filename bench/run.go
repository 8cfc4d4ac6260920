package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"asterixfeeds"
	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/storage"
)

// rig is one booted, preloaded and connected instance with its source,
// idle at the start gate.
type rig struct {
	sp           spec
	inst         *asterixfeeds.Instance
	src          *source
	dir          string
	conns        []*core.Connection
	managers     []*storage.Manager
	tweets       *storage.Dataset
	preloadBytes int64 // source bytes of the preloaded records
}

// heartbeatTimeout is the one instance setting that is not the default
// (120 ms): no workload kills a node, and on a 2-core sandbox a stall of
// that length — the previous run's dirty pages being written back — once
// got a live node declared dead in about 150 set-ups.
const heartbeatTimeout = 10 * time.Second

// preloadBatch is the number of records per insert job while preloading.
const preloadBatch = 10000

// setUp boots the instance under dir, declares the schema, preloads and
// flushes Tweets, connects the feeds, and returns once the socket adaptor
// has dialled the source and sent its handshake.
func setUp(sp spec, p *pool, dir string, preload int64) (_ *rig, err error) {
	inst, err := asterixfeeds.Start(asterixfeeds.Config{
		Nodes: sp.nodes, DataDir: dir,
		Hyracks: hyracks.Config{HeartbeatTimeout: heartbeatTimeout},
	})
	if err != nil {
		return nil, err
	}
	r := &rig{sp: sp, inst: inst, dir: dir}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if _, err := inst.Exec("create dataverse feeds;\n" + sp.schemaDDL()); err != nil {
		return nil, err
	}
	batch := make([]*adm.Record, 0, preloadBatch)
	for id := int64(0); id < preload; id++ {
		rec, err := p.record(slotOf(id), id)
		if err != nil {
			return nil, err
		}
		r.preloadBytes += int64(len(p.lines[slotOf(id)]))
		batch = append(batch, rec)
		if len(batch) == preloadBatch || id == preload-1 {
			if err := inst.InsertRecords(tweets, batch); err != nil {
				return nil, err
			}
			batch = batch[:0]
		}
	}
	for _, node := range sp.nodes {
		sm, err := inst.StorageManager(node)
		if err != nil {
			return nil, err
		}
		r.managers = append(r.managers, sm)
	}
	ds, ok := inst.Catalog().Dataset(dataverse, tweets)
	if !ok {
		return nil, errors.New("dataset Tweets is not in the catalog")
	}
	r.tweets = ds
	if err := r.eachPartition(func(_ string, part *storage.Partition) error { return part.Flush() }); err != nil {
		return nil, err
	}
	if r.src, err = listen(p); err != nil {
		return nil, err
	}
	if _, err := inst.Exec(sp.feedDDL(r.src.addr())); err != nil {
		return nil, err
	}
	feeds := []string{primaryFeed}
	if sp.cascade {
		feeds = append(feeds, secondaryFeed)
	}
	for i, feed := range feeds {
		conn, ok := inst.Feeds().Connection(dataverse, feed, sp.datasets()[i])
		if !ok {
			return nil, fmt.Errorf("feed %s is not connected", feed)
		}
		r.conns = append(r.conns, conn)
	}
	return r, r.src.awaitAdaptor(10 * time.Second)
}

// close shuts the instance down and removes its data.
func (r *rig) close() {
	if r.src != nil {
		r.src.close()
	}
	r.inst.Close() //nolint:errcheck // the data directory is removed next
	os.RemoveAll(r.dir)
}

// eachPartition calls fn for every open partition of the workload's
// datasets, on every node.
func (r *rig) eachPartition(fn func(dataset string, part *storage.Partition) error) error {
	for _, name := range r.sp.datasets() {
		ds, ok := r.inst.Catalog().Dataset(dataverse, name)
		if !ok {
			return fmt.Errorf("dataset %s is not in the catalog", name)
		}
		for idx := range ds.NodeGroup {
			for _, sm := range r.managers {
				if part := sm.PartitionIdx(ds.QualifiedName(), idx); part != nil {
					if err := fn(name, part); err != nil {
						return fmt.Errorf("%s partition %d: %w", name, idx, err)
					}
				}
			}
		}
	}
	return nil
}

// persisted is how many records every connection has stored: the count of
// the connection furthest behind.
func (r *rig) persisted() int64 {
	low := r.conns[0].Metrics.Persisted.Total()
	for _, c := range r.conns[1:] {
		if n := c.Metrics.Persisted.Total(); n < low {
			low = n
		}
	}
	return low
}

// stallLimit is how long a run waits without progress before it gives up.
const stallLimit = 20 * time.Second

// watch wakes every tick until total reaches target and returns when it
// first saw that. seen, when set, is told each new total; it is how lag is
// sampled without the per-record store path a persist observer forces.
func watch(total func() int64, target int64, seen func(now time.Time, total int64)) (time.Time, error) {
	last, moved := int64(-1), time.Now()
	for {
		now := time.Now()
		n := total()
		if n != last {
			last, moved = n, now
			if seen != nil {
				seen(now, n)
			}
		}
		if n >= target {
			return now, nil
		}
		if now.Sub(moved) > stallLimit {
			return now, fmt.Errorf("stalled at %d of %d records persisted", n, target)
		}
		time.Sleep(tick)
	}
}

// lagSampler turns persisted counts into the lag of every stride-th record
// of an open-loop stream: the time from when the record was due to be sent
// to when the count of persisted records first covered it.
type lagSampler struct {
	sc     schedule
	base   int64 // records persisted before the stream began
	stride int64
	next   int64
	lags   []time.Duration
}

func (l *lagSampler) seen(now time.Time, total int64) {
	for ; l.next < total-l.base; l.next += l.stride {
		l.lags = append(l.lags, now.Sub(l.sc.due(l.next)))
	}
}

// quiesce waits until flush and merge are idle on every node, so that work
// a stream deferred to the background is charged to it.
func (r *rig) quiesce() error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		idle := true
		for _, sm := range r.managers {
			if st := sm.Stats(); st.Immutables != 0 || st.CompactionDebt != 0 {
				idle = false
			}
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("flush and merge did not go idle")
		}
		time.Sleep(5 * tick)
	}
}

// partitionOf is the Tweets partition that holds key.
func (r *rig) partitionOf(key string) (*storage.Partition, error) {
	idx, err := r.tweets.PartitionOf((&adm.RecordBuilder{}).Add("id", adm.String(key)).MustBuild())
	if err != nil {
		return nil, err
	}
	for _, sm := range r.managers {
		if part := sm.PartitionIdx(r.tweets.QualifiedName(), idx); part != nil {
			return part, nil
		}
	}
	return nil, fmt.Errorf("partition %d of Tweets is not open", idx)
}

// hotKeys is the size of the key set half of the lookups go to: each key
// sits in a block of its own, so the set is 8 MiB of blocks, a quarter of a
// node's block cache.
const hotKeys = 256

// reader issues individually timed Partition.Lookup calls against Tweets
// in open loop: even ones on the hot set, odd ones uniform over every key,
// which on a dataset several times the block cache mostly miss it.
type reader struct {
	r      *rig
	rnd    *rand.Rand
	hot    []int64
	keys   int64 // lookups draw from ids [0, keys)
	hotLat []time.Duration
	cold   []time.Duration
	late   []time.Duration // per tick, how late its first lookup was issued
	failed int64
}

func newReader(r *rig, seed, keys int64) *reader {
	rd := &reader{r: r, rnd: rand.New(rand.NewSource(seed)), keys: keys}
	for i := 0; i < hotKeys; i++ {
		rd.hot = append(rd.hot, rd.rnd.Int63n(keys))
	}
	return rd
}

// lookup times one lookup, call to return; the i-th is hot when i is even.
func (rd *reader) lookup(i int64) {
	id := rd.rnd.Int63n(rd.keys)
	if i%2 == 0 {
		id = rd.hot[rd.rnd.Intn(len(rd.hot))]
	}
	key := keyOf(id)
	part, err := rd.r.partitionOf(key)
	if err != nil {
		rd.failed++
		return
	}
	pk := []adm.Value{adm.String(key)}
	start := time.Now()
	_, found, err := part.Lookup(pk)
	d := time.Since(start)
	if err != nil || !found {
		rd.failed++
		return
	}
	if i%2 == 0 {
		rd.hotLat = append(rd.hotLat, d)
	} else {
		rd.cold = append(rd.cold, d)
	}
}

// paced issues n lookups on sc.
func (rd *reader) paced(sc schedule, n int64) {
	rd.late, _ = openLoop(sc, n, func(lo, hi int64) error {
		for i := lo; i < hi; i++ {
			rd.lookup(i)
		}
		return nil
	})
}

// measured is everything one run observed.
type measured struct {
	values    map[string]float64
	attempted int64
	failed    int64
	failures  []string
}

// fail counts n failed operations, at least one.
func (m *measured) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	m.failed += n
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// verifySample is how many keys a run reads back and compares.
const verifySample = 1000

// stream is one send through the source and what the watcher saw of it.
type stream struct {
	sentAt      time.Time // the sender returned
	persistedAt time.Time // every connection had counted every record
	lags        []time.Duration
	genLate     []time.Duration
}

// send pushes n records through the source — back to back when rate is 0,
// else in open loop at rate — and watches until every connection has
// persisted them. base is what was persisted before; an open-loop send
// samples the lag of every stride-th record. With a reader, lookups run in
// open loop beside the send.
func (r *rig) send(rate float64, n, base, stride int64, key keyFunc, rd *reader, lookups int64) (*stream, error) {
	st := &stream{}
	sc := schedule{start: time.Now(), rate: rate}
	lag := &lagSampler{sc: sc, base: base, stride: stride}
	sendErr := make(chan error, 1)
	readDone := make(chan struct{})
	go func() {
		var err error
		if rate == 0 {
			err = r.src.flood(n, key)
		} else {
			st.genLate, err = r.src.paced(sc, n, key)
		}
		st.sentAt = time.Now()
		sendErr <- err
	}()
	go func() {
		defer close(readDone)
		if rd != nil {
			rd.paced(schedule{start: sc.start, rate: readRate}, lookups)
		}
	}()
	var seen func(time.Time, int64)
	if rate > 0 {
		seen = lag.seen
	}
	persistedAt, watchErr := watch(r.persisted, base+n, seen)
	if watchErr != nil {
		r.src.close() // unblocks a sender stuck on back-pressure
	}
	err := <-sendErr
	<-readDone
	if watchErr != nil {
		return nil, watchErr
	}
	if err != nil {
		return nil, fmt.Errorf("sending: %w", err)
	}
	st.persistedAt, st.lags = persistedAt, lag.lags
	return st, nil
}

// run performs one run of sp and returns its end-to-end metrics; with a
// tracer it also fills in the tracer's in-run counts.
func run(sp spec, seed int64, z sizes, outDir string, tr *tracer) (*measured, error) {
	p := newPool(seed)
	rnd := rand.New(rand.NewSource(seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}

	// Set up z.setups times; the last rig is the one measured.
	var r *rig
	var setupTimes []float64
	for i := 0; i < z.setups; i++ {
		if r != nil {
			r.close()
		}
		dir, err := os.MkdirTemp(outDir, "data-"+sp.name+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if r, err = setUp(sp, p, dir, z.preload); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer r.close()
	m := &measured{values: map[string]float64{}}
	m.values["setup_s"] = quantile(sortedCopy(setupTimes), 0.5)

	// The stream's keys, and the sample of them read back at the end.
	key := keyFunc(func(i int64) int64 { return z.preload + i })
	keys := z.preload + z.records + z.probe
	if sp.upsert {
		upserts := rand.New(rand.NewSource(seed + 1))
		key = func(int64) int64 { return upserts.Int63n(z.preload) }
		keys = z.preload
	}
	for len(r.src.track) < verifySample && int64(len(r.src.track)) < keys {
		id := rnd.Int63n(keys)
		r.src.track[id] = slotOf(id)
	}

	// The start gate: everything is connected and idle.
	runtime.GC()
	if tr != nil {
		tr.startPolling(r)
	}
	gate := readUsage()
	var rd *reader
	var main *stream
	var err error
	if sp.pacedRate > 0 {
		// The reader runs beside a paced stream, on the preloaded keys.
		rd = newReader(r, seed+2, z.preload)
		main, err = r.send(float64(sp.pacedRate), z.records, 0, 16, key, rd, z.lookups)
	} else {
		main, err = r.send(0, z.records, 0, 0, key, nil, 0)
	}
	if err != nil {
		return nil, err
	}
	if err := r.quiesce(); err != nil {
		return nil, err
	}
	idle := readUsage()
	if tr != nil {
		tr.stopPolling()
	}
	disk, err := settledDirBytes(r.dir)
	if err != nil {
		return nil, err
	}
	n := float64(z.records)
	m.attempted = z.records + z.probe + z.lookups
	m.values["ingest_records_per_s"] = n / main.persistedAt.Sub(gate.at).Seconds()
	m.values["driver.cpu_us_per_record"] = float64(idle.cpu-gate.cpu) / float64(time.Microsecond) / n
	m.values["allocs_per_record"] = float64(idle.mallocs-gate.mallocs) / n
	m.values["alloc_bytes_per_record"] = float64(idle.bytes-gate.bytes) / n
	m.values["disk_bytes_per_source_byte"] = float64(disk) / float64(r.preloadBytes+r.src.bytes)
	m.values["driver.quiesce_s"] = idle.at.Sub(main.persistedAt).Seconds()
	m.values["driver.run_s"] = main.persistedAt.Sub(gate.at).Seconds()
	m.values["runtime.gc_cycles"] = float64(idle.gcs - gate.gcs)
	lagged := main
	if sp.pacedRate > 0 {
		// sentAt is read after the last write returned, so a run that
		// kept up drains in about the pipeline's latency.
		if drain := main.persistedAt.Sub(main.sentAt); drain > time.Second {
			m.fail(1, "fell behind: %.2fs from the last send to the last record persisted", drain.Seconds())
		}
	} else {
		// A flood's lag says how much the pipeline buffers, not how fast
		// it is, and a reader beside a flood mostly waits for the
		// partition's lock. So once a flood has quiesced, a trickle is
		// sent in open loop and its lag is what the flood reports; then
		// the reader runs alone over every key the flood stored. (Beside
		// the trickle about one lookup in a hundred met a held lock, which
		// put the lookups' p99 on the edge between two regimes: 99–265 µs.)
		trickle := func(i int64) int64 { return key(z.records + i) }
		if lagged, err = r.send(probeRate, z.probe, z.records, 4, trickle, nil, 0); err != nil {
			return nil, fmt.Errorf("trickle: %w", err)
		}
		rd = newReader(r, seed+2, z.preload+z.records)
		rd.paced(schedule{start: time.Now(), rate: readRate}, z.lookups)
	}
	m.values["lag_p50_ms"] = quantileOf(lagged.lags, 0.5, time.Millisecond)
	m.values["driver.lag_p90_ms"] = quantileOf(lagged.lags, 0.9, time.Millisecond)
	m.values["driver.lag_p99_ms"] = quantileOf(lagged.lags, 0.99, time.Millisecond)
	m.values["driver.lag_max_ms"] = quantileOf(lagged.lags, 1, time.Millisecond)
	m.values["driver.lag_samples"] = float64(len(lagged.lags))
	m.values["driver.gen_late_p99_ms"] = quantileOf(lagged.genLate, 0.99, time.Millisecond)

	all := append(append([]time.Duration(nil), rd.hotLat...), rd.cold...)
	m.values["lookup_hot_p50_us"] = quantileOf(rd.hotLat, 0.5, time.Microsecond)
	m.values["lookup_cold_p50_us"] = quantileOf(rd.cold, 0.5, time.Microsecond)
	m.values["driver.lookup_p99_us"] = quantileOf(all, 0.99, time.Microsecond)
	m.values["driver.lookup_cold_p99_us"] = quantileOf(rd.cold, 0.99, time.Microsecond)
	m.values["driver.read_late_p99_ms"] = quantileOf(rd.late, 0.99, time.Millisecond)
	if rd.failed > 0 {
		m.fail(rd.failed, "%d lookups erred or missed", rd.failed)
	}
	if tr != nil {
		tr.finish(m, z, gate, idle)
	}
	verifyStart := time.Now()
	err = r.verify(z, m)
	m.values["driver.verify_s"] = time.Since(verifyStart).Seconds()
	return m, err
}

// verify is the correctness gate of every run: dataset sizes, a sample of
// keys compared with the last version sent, index consistency, and the
// loss counters.
func (r *rig) verify(z sizes, m *measured) error {
	counts := map[string]int64{}
	err := r.eachPartition(func(dataset string, part *storage.Partition) error {
		n, err := part.Count()
		counts[dataset] += int64(n)
		if err != nil {
			return err
		}
		return part.VerifyIndexes()
	})
	if err != nil {
		m.fail(1, "index check: %v", err)
	}
	fresh := z.records + z.probe
	if r.sp.upsert {
		fresh = 0
	}
	for _, name := range r.sp.datasets() {
		want := fresh
		if name == tweets {
			want += z.preload
		}
		if got := counts[name]; got != want {
			miss := want - got
			if miss < 0 {
				miss = -miss
			}
			m.fail(miss, "%s holds %d records, want %d", name, got, want)
		}
	}
	for id, slot := range r.src.track {
		want, err := r.src.pool.record(slot, id)
		if err != nil {
			return err
		}
		key := keyOf(id)
		part, err := r.partitionOf(key)
		if err != nil {
			return err
		}
		got, found, err := part.Lookup([]adm.Value{adm.String(key)})
		if err != nil || !found || !adm.Equal(got, want) {
			m.fail(1, "key %s: found=%v err=%v, or not the last version sent", key, found, err)
		}
	}
	reg := r.inst.Registry()
	for _, c := range r.conns {
		for _, series := range []string{"discarded", "throttled_out", "governor.shed", "store_errors", "replayed", "soft_failures", "spill_errors"} {
			name := "feed." + c.ID() + "." + series
			if v, ok := reg.Value(name); !ok || v != 0 {
				m.fail(v, "%s = %d (registered: %v), want 0", name, v, ok)
			}
		}
	}
	for _, node := range r.sp.nodes {
		name := "node." + node + ".governor.shed_records"
		if v, ok := reg.Value(name); !ok || v != 0 {
			m.fail(v, "%s = %d (registered: %v), want 0", name, v, ok)
		}
	}
	return nil
}
