package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

// Partition is one hash partition of a dataset: a primary LSM tree keyed by
// encoded primary key, plus one LSM tree per secondary index. All trees for
// a partition live under one directory on the hosting node.
type Partition struct {
	ds  *Dataset
	idx int

	mu          sync.Mutex
	primary     *lsm.Tree
	secondaries map[string]*lsm.Tree
	inserted    int64
	// closed is atomic so Stats can read it without mu, which InsertFrame
	// holds across durable writes; every other reader already holds mu.
	closed atomic.Bool
	frame  frameScratch // reusable InsertFrame state, guarded by mu
}

// encFieldRef is one (name, encoded value) pair captured while scanning a
// serialized record; both slices alias the record's bytes.
type encFieldRef struct {
	name, enc []byte
}

// frameScratch is per-partition scratch reused across InsertFrame calls so
// the steady-state frame path allocates only what the memtable retains by
// reference — not per-call bookkeeping, and not keys, which the trees copy.
type frameScratch struct {
	fields []encFieldRef // field scan of the current record
	pks    [][]byte      // per-record encoded primary key
	skeys  [][]byte      // per-record secondary keys, flattened nIdx per record
	keys   []byte        // bytes of the keys the trees copy
	byKey  []int         // record indexes, stably sorted by primary key
	prev   []int         // per record: the frame's latest earlier record with its primary key, or -1
	prim   *lsm.Batch
	sec    []*lsm.Batch // parallel to ds.Indexes
}

// release drops references retained from the last frame while keeping
// slice capacity for the next call. The trees hold copies of the keys, so
// the key bytes are reused.
func (fs *frameScratch) release() {
	clear(fs.fields)
	fs.fields = fs.fields[:0]
	clear(fs.pks)
	fs.pks = fs.pks[:0]
	clear(fs.skeys)
	fs.skeys = fs.skeys[:0]
	fs.keys = fs.keys[:0]
	fs.byKey = fs.byKey[:0]
	fs.prev = fs.prev[:0]
	fs.prim.Reset()
	for _, b := range fs.sec {
		b.Reset()
	}
}

// secondaryKey builds in fs.keys the key that the package function
// secondaryKey builds from a decoded record, but from the encoded value of
// the indexed field. nil means the field is absent/null and the record is
// simply not indexed.
func (fs *frameScratch) secondaryKey(ix IndexDecl, encField, pk []byte) ([]byte, error) {
	if len(encField) == 0 {
		return nil, nil
	}
	tag := adm.TypeTag(encField[0])
	if tag == adm.TagNull || tag == adm.TagMissing {
		return nil, nil
	}
	at := len(fs.keys)
	switch ix.Kind {
	case BTree:
		fs.keys = append(fs.keys, encField...)
	case RTree:
		if tag != adm.TagPoint || len(encField) < 17 {
			return nil, fmt.Errorf("storage: rtree index %q over non-point value %s", ix.Name, tag)
		}
		pt := adm.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(encField[1:9])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(encField[9:17])),
		}
		fs.keys = appendCellPrefix(fs.keys, cellOf(pt))
		fs.keys = binary.BigEndian.AppendUint64(fs.keys, math.Float64bits(pt.X))
		fs.keys = binary.BigEndian.AppendUint64(fs.keys, math.Float64bits(pt.Y))
	default:
		return nil, fmt.Errorf("storage: unknown index kind %d", ix.Kind)
	}
	fs.keys = append(fs.keys, pk...)
	return fs.keys[at:len(fs.keys):len(fs.keys)], nil
}

// linkRepeats sets prev[i] to the latest record before i in the frame with
// the same primary key, or -1: a stable sort of the record indexes by key
// puts every record right after its predecessor.
func (fs *frameScratch) linkRepeats() {
	for i := range fs.pks {
		fs.byKey = append(fs.byKey, i)
		fs.prev = append(fs.prev, -1)
	}
	slices.SortStableFunc(fs.byKey, func(a, b int) int { return bytes.Compare(fs.pks[a], fs.pks[b]) })
	for k := 1; k < len(fs.byKey); k++ {
		if i, j := fs.byKey[k], fs.byKey[k-1]; bytes.Equal(fs.pks[i], fs.pks[j]) {
			fs.prev[i] = j
		}
	}
}

// scan loads fields with the top-level fields of the encoded record rec.
func (fs *frameScratch) scan(rec []byte) error {
	fs.fields = fs.fields[:0]
	_, err := adm.ScanRecordFields(rec, func(name, enc []byte) bool {
		fs.fields = append(fs.fields, encFieldRef{name: name, enc: enc})
		return true
	})
	return err
}

// openPartition opens (creating if needed) partition idx of ds under dir.
// When lsmOpt carries a FaultHook, each tree's failure points are prefixed
// with "<partition-dir>/<tree>/" (e.g. "p001/primary/wal.appendBatch") so a
// fault-injection harness can target one tree of one partition.
func openPartition(ds *Dataset, idx int, dir string, lsmOpt lsm.Options) (*Partition, error) {
	p := &Partition{ds: ds, idx: idx, secondaries: make(map[string]*lsm.Tree)}
	p.frame = frameScratch{prim: lsm.NewBatch(0)}
	for range ds.Indexes {
		p.frame.sec = append(p.frame.sec, lsm.NewBatch(0))
	}
	label := filepath.Base(dir)
	// The primary and every secondary tree recover independently (separate
	// directories, separate WALs), so open them concurrently: a partition's
	// reopen cost is its slowest tree's recovery, not the sum.
	treeOpt := func(sub, hook string) lsm.Options {
		o := lsmOpt
		o.Dir = filepath.Join(dir, sub)
		o.FaultHook = prefixHook(lsmOpt.FaultHook, label+"/"+hook+"/")
		return o
	}
	trees := make([]*lsm.Tree, 1+len(ds.Indexes))
	errs := make([]error, len(trees))
	done := make(chan struct{}, len(trees))
	open := func(slot int, opt lsm.Options) {
		trees[slot], errs[slot] = lsm.Open(opt)
		done <- struct{}{} // buffered to len(trees): never blocks
	}
	go open(0, treeOpt("primary", "primary"))
	for i, ix := range ds.Indexes {
		go open(1+i, treeOpt("idx-"+ix.Name, ix.Name))
	}
	for range trees {
		<-done
	}
	p.primary = trees[0]
	for i, ix := range ds.Indexes {
		if trees[1+i] != nil {
			p.secondaries[ix.Name] = trees[1+i]
		}
	}
	for _, err := range errs {
		if err != nil {
			_ = p.Close() // releases whichever trees did open
			return nil, err
		}
	}
	return p, nil
}

// prefixHook narrows a manager-wide fault hook to one tree by prefixing
// every failure-point name. It owns the nil contract: a nil hook maps to a
// nil hook, so the returned closure only ever wraps a non-nil h.
//
//feedlint:nilsafe
func prefixHook(h lsm.FaultHook, prefix string) lsm.FaultHook {
	if h == nil {
		return nil
	}
	return func(op string) error { return h(prefix + op) }
}

// Index reports this partition's index within the nodegroup.
func (p *Partition) Index() int { return p.idx }

// Dataset returns the partition's dataset declaration.
func (p *Partition) Dataset() *Dataset { return p.ds }

// InsertFrame is the partition's one write path: a frame of N >= 1
// serialized records becomes one batched write per index. Every record is
// validated and keyed straight from its bytes (no decode, no re-encode),
// then the primary tree and each secondary tree receive a single lsm.Batch —
// one lock acquisition, one WAL record, and at most one fsync per tree for
// the entire frame (group commit).
//
// Validation and key extraction complete for the whole frame before any
// tree is touched, so a validation error leaves the partition unmodified.
// Within a frame, a later record with the same primary key replaces an
// earlier one, exactly as two one-record frames would. The partition
// retains the record byte slices; callers must not reuse the record bytes
// afterwards.
func (p *Partition) InsertFrame(recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("storage: partition closed")
	}
	fs := &p.frame
	defer fs.release()
	nIdx := len(p.ds.Indexes)

	// Phase A: validate every record and derive all keys, mutating nothing.
	// Failures here are data errors: caused by the frame's bytes, with the
	// partition untouched.
	for _, rec := range recs {
		if err := p.ds.Type.ValidateEncoded(rec); err != nil {
			return dataErr(err)
		}
		if err := fs.scan(rec); err != nil {
			return dataErr(err)
		}
		// The primary tree copies the key, so on a dataset without indexes
		// it is scratch. Every secondary entry keeps its record's key as its
		// value, so on an indexed dataset the key is one exact-size
		// allocation, shared by all of that record's entries.
		var pk []byte
		var err error
		if nIdx == 0 {
			at := len(fs.keys)
			fs.keys, err = appendPrimaryKey(fs.keys, p.ds, fs.fields)
			pk = fs.keys[at:len(fs.keys):len(fs.keys)]
		} else {
			pk, err = appendPrimaryKey(nil, p.ds, fs.fields)
		}
		if err != nil {
			return dataErr(err)
		}
		fs.pks = append(fs.pks, pk)
		for _, ix := range p.ds.Indexes {
			skey, err := fs.secondaryKey(ix, findField(fs.fields, ix.Field), pk)
			if err != nil {
				return dataErr(err)
			}
			fs.skeys = append(fs.skeys, skey)
		}
	}

	// Phase B: build one batch per tree and apply them.
	if nIdx > 0 {
		fs.linkRepeats()
	}
	for i, rec := range recs {
		pk := fs.pks[i]
		fs.prim.Put(pk, rec)
		if nIdx == 0 {
			continue // nothing hangs off the record this one replaces, so it is not read
		}
		if prev := fs.prev[i]; prev >= 0 {
			// An earlier record in this frame used the same key: unhook the
			// secondary entries it queued. Batch order makes the later Put
			// win when old and new keys coincide.
			for j := 0; j < nIdx; j++ {
				if old := fs.skeys[prev*nIdx+j]; old != nil {
					fs.sec[j].Delete(old)
				}
			}
		} else if old, found, err := p.primary.Get(pk); err != nil {
			return err
		} else if found {
			if err := p.unhookStored(fs, pk, old); err != nil {
				return err
			}
		}
		for j := 0; j < nIdx; j++ {
			if skey := fs.skeys[i*nIdx+j]; skey != nil {
				fs.sec[j].Put(skey, pk)
			}
		}
	}
	// p.mu spans every tree's group-commit fsync: a record's primary and
	// secondary entries must change atomically with respect to readers and
	// other frames, so the partition accepts stalling on the trees' disks.
	//feedlint:allow lockorder -- frame-level atomicity across primary and secondaries requires p.mu over durable writes
	if err := p.primary.ApplyBatch(fs.prim); err != nil {
		return err
	}
	if err := p.applySecondaries(fs); err != nil {
		return err
	}
	p.inserted += int64(len(recs))
	return nil
}

// unhookStored queues, in the frame's per-index batches, the removal of the
// secondary entries that stored — the encoded record currently under pk —
// put there. The keys are re-derived from the stored bytes the same way
// InsertFrame derived them when it wrote the record.
func (p *Partition) unhookStored(fs *frameScratch, pk, stored []byte) error {
	if err := fs.scan(stored); err != nil {
		return err
	}
	for j, ix := range p.ds.Indexes {
		skey, err := fs.secondaryKey(ix, findField(fs.fields, ix.Field), pk)
		if err != nil {
			return err
		}
		if skey != nil {
			fs.sec[j].Delete(skey)
		}
	}
	return nil
}

// applySecondaries writes the frame's batch to each secondary tree.
func (p *Partition) applySecondaries(fs *frameScratch) error {
	for j, ix := range p.ds.Indexes {
		if err := p.secondaries[ix.Name].ApplyBatch(fs.sec[j]); err != nil {
			return err
		}
	}
	return nil
}

// findField returns the encoded value of the named field from a scanned
// field list, or nil when absent.
func findField(fields []encFieldRef, name string) []byte {
	for _, f := range fields {
		if string(f.name) == name {
			return f.enc
		}
	}
	return nil
}

// appendPrimaryKey appends to dst the raw encoded primary key fields,
// concatenated — byte-identical to Dataset.PrimaryKeyOf on the decoded
// record, since the encoding is canonical. It grows dst at most once —
// exactly, when dst is nil — and on error returns dst unchanged.
func appendPrimaryKey(dst []byte, ds *Dataset, fields []encFieldRef) ([]byte, error) {
	total := 0
	for _, f := range ds.PrimaryKey {
		enc := findField(fields, f)
		if enc == nil || adm.TypeTag(enc[0]) == adm.TagMissing || adm.TypeTag(enc[0]) == adm.TagNull {
			return dst, fmt.Errorf("storage: record lacks primary key field %q", f)
		}
		total += len(enc)
	}
	if cap(dst)-len(dst) < total {
		dst = append(make([]byte, 0, 2*cap(dst)+total), dst...)
	}
	for _, f := range ds.PrimaryKey {
		dst = append(dst, findField(fields, f)...)
	}
	return dst, nil
}

// Delete removes the record with the given primary key fields: like a
// frame, one batch (one WAL record) per tree under one hold of p.mu. The
// secondary entries go first, so a Delete that failed midway still finds
// the record, and finishes, when retried.
func (p *Partition) Delete(pkValues []adm.Value) error {
	if len(pkValues) != len(p.ds.PrimaryKey) {
		return fmt.Errorf("storage: %d key values for %d-field primary key", len(pkValues), len(p.ds.PrimaryKey))
	}
	var pk []byte
	for _, v := range pkValues {
		pk = adm.AppendValue(pk, v)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("storage: partition closed")
	}
	old, ok, err := p.primary.Get(pk)
	if err != nil || !ok {
		return err
	}
	fs := &p.frame
	defer fs.release()
	if err := p.unhookStored(fs, pk, old); err != nil {
		return err
	}
	if err := p.applySecondaries(fs); err != nil {
		return err
	}
	fs.prim.Delete(pk)
	return p.primary.ApplyBatch(fs.prim)
}

// Lookup returns the record with the given primary key fields.
func (p *Partition) Lookup(pkValues []adm.Value) (*adm.Record, bool, error) {
	var pk []byte
	for _, v := range pkValues {
		pk = adm.AppendValue(pk, v)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil, false, fmt.Errorf("storage: partition closed")
	}
	val, ok, err := p.primary.Get(pk)
	if err != nil || !ok {
		return nil, false, err
	}
	rec, err := decodeStored(val)
	return rec, err == nil, err
}

// decodeStored decodes a value read from the primary tree, which must be a
// record: anything else is corruption, reported rather than asserted.
func decodeStored(val []byte) (*adm.Record, error) {
	v, err := adm.DecodeOne(val)
	if err != nil {
		return nil, err
	}
	rec, ok := v.(*adm.Record)
	if !ok {
		return nil, fmt.Errorf("storage: stored value is %s, not a record", v.Tag())
	}
	return rec, nil
}

// Scan invokes fn for every record in the partition in primary key order.
// fn returning false stops early.
func (p *Partition) Scan(fn func(rec *adm.Record) bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("storage: partition closed")
	}
	var scanErr error
	err := p.primary.Scan(nil, nil, func(_, val []byte) bool {
		rec, err := decodeStored(val)
		if err != nil {
			scanErr = err
			return false
		}
		return fn(rec)
	})
	if scanErr != nil {
		return scanErr
	}
	return err
}

// Count reports the number of live records.
func (p *Partition) Count() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return 0, fmt.Errorf("storage: partition closed")
	}
	return p.primary.Len()
}

// Inserted reports the number of records written by successful InsertFrame
// calls since open (a cheap counter; unlike Count it does not scan).
func (p *Partition) Inserted() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inserted
}

// SearchBTree returns the primary keys of records whose indexed field equals
// value, using the named btree index.
func (p *Partition) SearchBTree(indexName string, value adm.Value) ([]*adm.Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil, fmt.Errorf("storage: partition closed")
	}
	ix, ok := p.ds.Index(indexName)
	if !ok || ix.Kind != BTree {
		return nil, fmt.Errorf("storage: no btree index %q on %s", indexName, p.ds.QualifiedName())
	}
	t := p.secondaries[indexName]
	prefix := adm.Encode(value)
	upper := prefixUpperBound(prefix)
	var out []*adm.Record
	var innerErr error
	err := t.Scan(prefix, upper, func(_, pk []byte) bool {
		val, found, err := p.primary.Get(pk)
		if err != nil {
			innerErr = err
			return false
		}
		if !found {
			return true
		}
		rec, err := decodeStored(val)
		if err != nil {
			innerErr = err
			return false
		}
		out = append(out, rec)
		return true
	})
	if innerErr != nil {
		return nil, innerErr
	}
	return out, err
}

// SearchRTree returns records whose indexed point field lies within rect,
// using the named rtree index.
func (p *Partition) SearchRTree(indexName string, rect adm.Rectangle) ([]*adm.Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil, fmt.Errorf("storage: partition closed")
	}
	ix, ok := p.ds.Index(indexName)
	if !ok || ix.Kind != RTree {
		return nil, fmt.Errorf("storage: no rtree index %q on %s", indexName, p.ds.QualifiedName())
	}
	t := p.secondaries[indexName]
	var out []*adm.Record
	var innerErr error
	for _, cell := range cellsCovering(rect) {
		prefix := appendCellPrefix(nil, cell)
		upper := prefixUpperBound(prefix)
		err := t.Scan(prefix, upper, func(key, pk []byte) bool {
			pt, ok := pointFromRTreeKey(key)
			if !ok || !rect.Contains(pt) {
				return true
			}
			val, found, err := p.primary.Get(pk)
			if err != nil {
				innerErr = err
				return false
			}
			if !found {
				return true
			}
			rec, err := decodeStored(val)
			if err != nil {
				innerErr = err
				return false
			}
			out = append(out, rec)
			return true
		})
		if innerErr != nil {
			return nil, innerErr
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// VerifyIndexes cross-checks primary/secondary consistency: every stored
// record must have exactly its expected entry in every secondary tree
// (mapping back to its primary key), and no secondary tree may hold
// dangling entries beyond those. Full scan per tree — intended for test
// harnesses and invariant checkers, not the hot path.
func (p *Partition) VerifyIndexes() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("storage: partition closed")
	}
	expect := make(map[string]int, len(p.ds.Indexes))
	var checkErr error
	err := p.primary.Scan(nil, nil, func(pk, val []byte) bool {
		rec, err := decodeStored(val)
		if err != nil {
			checkErr = err
			return false
		}
		for _, ix := range p.ds.Indexes {
			skey, present, err := secondaryKey(ix, rec, pk)
			if err != nil {
				checkErr = err
				return false
			}
			if !present {
				continue
			}
			got, found, err := p.secondaries[ix.Name].Get(skey)
			if err != nil {
				checkErr = err
				return false
			}
			if !found {
				checkErr = fmt.Errorf("storage: index %q missing entry for pk %x", ix.Name, pk)
				return false
			}
			if string(got) != string(pk) {
				checkErr = fmt.Errorf("storage: index %q entry for pk %x points at %x", ix.Name, pk, got)
				return false
			}
			expect[ix.Name]++
		}
		return true
	})
	if checkErr != nil {
		return checkErr
	}
	if err != nil {
		return err
	}
	for _, ix := range p.ds.Indexes {
		n, err := p.secondaries[ix.Name].Len()
		if err != nil {
			return err
		}
		if n != expect[ix.Name] {
			return fmt.Errorf("storage: index %q holds %d entries, want %d (dangling entries)", ix.Name, n, expect[ix.Name])
		}
	}
	return nil
}

// Flush flushes the primary and secondary trees to disk.
func (p *Partition) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil
	}
	// Flush must see a quiesced partition: p.mu keeps writers out while
	// every tree drains its background pipeline. The trees never hold a
	// lock into a blocking primitive here — Tree.Flush waits on
	// close-signaled channels — so no lockorder waiver is needed anymore.
	if err := p.primary.Flush(); err != nil {
		return err
	}
	for _, t := range p.secondaries {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates LSM component statistics across the partition's primary
// and secondary trees. It does not take p.mu — the trees are fixed at open
// and Tree.Stats takes only its tree's read lock — so the governor and the
// metrics scrape never queue behind an InsertFrame waiting on an fsync or a
// write stall: the reader that is supposed to notice a backed-up LSM must
// not block on it.
func (p *Partition) Stats() lsm.Stats {
	if p.closed.Load() {
		return lsm.Stats{}
	}
	out := p.primary.Stats()
	for _, t := range p.secondaries {
		out.Add(t.Stats())
	}
	return out
}

// Close releases the partition's trees.
func (p *Partition) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil
	}
	p.closed.Store(true)
	var first error
	if p.primary != nil {
		if err := p.primary.Close(); err != nil {
			first = err
		}
	}
	for _, t := range p.secondaries {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// secondaryKey builds the secondary index key for rec: the indexed field's
// encoding (or grid cell for rtree) concatenated with the primary key, so
// duplicate field values remain distinct entries. ok=false means the field
// is absent/null and the record is simply not indexed. The write path keys
// from encoded bytes (frameScratch.secondaryKey); this decode-side derivation is
// VerifyIndexes' independent statement of what that must have produced.
func secondaryKey(ix IndexDecl, rec *adm.Record, pk []byte) (key []byte, ok bool, err error) {
	v, present := rec.Field(ix.Field)
	if !present || v.Tag() == adm.TagNull || v.Tag() == adm.TagMissing {
		return nil, false, nil
	}
	switch ix.Kind {
	case BTree:
		key = adm.Encode(v)
	case RTree:
		pt, isPt := v.(adm.Point)
		if !isPt {
			return nil, false, fmt.Errorf("storage: rtree index %q over non-point value %s", ix.Name, v.Tag())
		}
		key = appendCellPrefix(nil, cellOf(pt))
		// Embed the exact point for in-index filtering.
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:], math.Float64bits(pt.X))
		binary.BigEndian.PutUint64(buf[8:], math.Float64bits(pt.Y))
		key = append(key, buf[:]...)
	default:
		return nil, false, fmt.Errorf("storage: unknown index kind %d", ix.Kind)
	}
	return append(key, pk...), true, nil
}

// prefixUpperBound returns the smallest byte string greater than every
// string with the given prefix, or nil when no such bound exists.
func prefixUpperBound(prefix []byte) []byte {
	up := append([]byte(nil), prefix...)
	for i := len(up) - 1; i >= 0; i-- {
		if up[i] != 0xFF {
			up[i]++
			return up[:i+1]
		}
	}
	return nil
}
