package storage

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

// The reference model of a partition: the record last written under each
// primary key. Every index answer is recomputed from it.
type partitionModel map[string]*adm.Record

const (
	modelKeys  = 160 // small keyspace: most frames replace stored keys
	modelUsers = 5
)

func modelID(k int) string { return fmt.Sprintf("k%03d", k) }

// modelRecord draws a record for key k: a random user, and a location that
// is a point on a small half-unit grid — 48 rtree cells of four points, so
// two versions of a record often share a cell at different points — absent,
// or null.
func modelRecord(rng *rand.Rand, k int) *adm.Record {
	b := (&adm.RecordBuilder{}).
		Add("id", adm.String(modelID(k))).
		Add("user_name", adm.String(fmt.Sprintf("u%d", rng.Intn(modelUsers)))).
		Add("message_text", adm.String(fmt.Sprintf("m%d", rng.Int63())))
	switch rng.Intn(4) {
	case 0: // absent
	case 1:
		b.Add("location", adm.Null{})
	default:
		b.Add("location", adm.Point{X: float64(rng.Intn(24)-12) / 2, Y: float64(rng.Intn(16)-8) / 2})
	}
	return b.MustBuild()
}

// invalidRecord draws bytes InsertFrame must refuse: a record missing a
// required field, one without its primary key, a non-record, a truncation.
func invalidRecord(rng *rand.Rand) []byte {
	switch rng.Intn(4) {
	case 0:
		return adm.Encode((&adm.RecordBuilder{}).Add("id", adm.String(modelID(rng.Intn(modelKeys)))).MustBuild())
	case 1:
		return adm.Encode((&adm.RecordBuilder{}).
			Add("user_name", adm.String("u0")).
			Add("message_text", adm.String("m")).MustBuild())
	case 2:
		return adm.Encode(adm.String("not a record"))
	default:
		enc := adm.Encode(modelRecord(rng, rng.Intn(modelKeys)))
		return enc[:len(enc)-1-rng.Intn(4)]
	}
}

// recordIDs returns the sorted ids of recs, failing on a duplicate.
func recordIDs(t *testing.T, what string, recs []*adm.Record) []string {
	t.Helper()
	ids := make([]string, 0, len(recs))
	for _, r := range recs {
		id, _ := r.Field("id")
		ids = append(ids, string(id.(adm.String)))
	}
	sort.Strings(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Fatalf("%s returned %s twice", what, ids[i])
		}
	}
	return ids
}

// check compares every read path of p with the model.
func (m partitionModel) check(t *testing.T, step string, rng *rand.Rand, p *Partition) {
	t.Helper()
	if n, err := p.Count(); err != nil || n != len(m) {
		t.Fatalf("%s: Count = %d, %v; model holds %d", step, n, err, len(m))
	}
	for k := 0; k < modelKeys; k++ {
		id := modelID(k)
		got, ok, err := p.Lookup([]adm.Value{adm.String(id)})
		want, stored := m[id]
		if err != nil || ok != stored || (ok && !adm.Equal(got, want)) {
			t.Fatalf("%s: Lookup(%s) = %v, %v, %v; model has %v (%v)", step, id, got, ok, err, want, stored)
		}
	}
	if len(p.ds.Indexes) == 0 {
		return // a plain dataset: nothing but the primary tree to ask
	}
	for u := 0; u < modelUsers; u++ {
		user := adm.String(fmt.Sprintf("u%d", u))
		var want []string
		for id, r := range m {
			if hasUser(user)(r) {
				want = append(want, id)
			}
		}
		sort.Strings(want)
		got, err := p.SearchBTree("userIdx", user)
		if err != nil {
			t.Fatalf("%s: SearchBTree(%s): %v", step, user, err)
		}
		if ids := recordIDs(t, "SearchBTree", got); fmt.Sprint(ids) != fmt.Sprint(want) {
			t.Fatalf("%s: SearchBTree(%s) = %v, model says %v", step, user, ids, want)
		}
		for _, r := range got {
			id, _ := r.Field("id")
			if !adm.Equal(r, m[string(id.(adm.String))]) {
				t.Fatalf("%s: SearchBTree(%s) returned a stale version of %s", step, user, id)
			}
		}
	}
	for q := 0; q < 3; q++ {
		rect := randomRect(rng)
		var want []string
		for id, r := range m {
			if inRect(rect)(r) {
				want = append(want, id)
			}
		}
		sort.Strings(want)
		got, err := p.SearchRTree("locationIndex", rect)
		if err != nil {
			t.Fatalf("%s: SearchRTree(%v): %v", step, rect, err)
		}
		if ids := recordIDs(t, "SearchRTree", got); fmt.Sprint(ids) != fmt.Sprint(want) {
			t.Fatalf("%s: SearchRTree(%v) = %v, model says %v", step, rect, ids, want)
		}
	}
	if err := p.VerifyIndexes(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// randomRect draws a query rectangle over modelRecord's grid and beyond it;
// one in two lies inside one rtree cell, where a record that moved within
// the cell has a stale entry and a live one that both lie in the rectangle.
func randomRect(rng *rand.Rand) adm.Rectangle {
	lo := adm.Point{X: float64(rng.Intn(14) - 9), Y: float64(rng.Intn(10) - 6)}
	if rng.Intn(2) == 0 {
		lo = adm.Point{X: float64(rng.Intn(12) - 6), Y: float64(rng.Intn(8) - 4)}
		return adm.Rectangle{Low: lo, High: adm.Point{X: lo.X + 0.5, Y: lo.Y + 0.5}}
	}
	return adm.Rectangle{Low: lo, High: adm.Point{X: lo.X + float64(rng.Intn(10)), Y: lo.Y + float64(rng.Intn(7))}}
}

// hasUser and inRect are the two index searches' tests, on a model record.
func hasUser(user adm.Value) func(*adm.Record) bool {
	return func(r *adm.Record) bool { v, _ := r.Field("user_name"); return adm.Equal(v, user) }
}

func inRect(rect adm.Rectangle) func(*adm.Record) bool {
	return func(r *adm.Record) bool {
		v, _ := r.Field("location")
		pt, isPt := v.(adm.Point)
		return isPt && rect.Contains(pt)
	}
}

// concurrentReads reads p from two goroutines, while one step moves it from
// model before to model after, until the returned stop is called; stop
// reports the first read the partition's read consistency does not allow.
// A frame reaches each tree as one batch, so a Lookup sees the step all or
// nothing. Count and the index searches walk a tree, and a walk sees each
// record as it stands when the walk passes it: every record once, in a
// version from before or after (one that passes the search), and none
// missing that the step leaves where it was. Only a record the step inserts,
// deletes or moves to another index key may be missed.
func concurrentReads(p *Partition, before, after partitionModel, seed int64) (stop func() error) {
	done := make(chan struct{})
	errs := make(chan error, 2)
	for r := int64(0); r < 2; r++ {
		rng := rand.New(rand.NewSource(seed + r))
		go func() {
			for {
				if err := readOnce(p, before, after, rng); err != nil {
					errs <- err
					return
				}
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
			}
		}()
	}
	return func() error {
		close(done)
		err := <-errs
		if err2 := <-errs; err == nil {
			err = err2
		}
		return err
	}
}

// readOnce makes one random read of p and checks it against before and
// after (see concurrentReads).
func readOnce(p *Partition, before, after partitionModel, rng *rand.Rand) error {
	indexed := len(p.ds.Indexes) > 0
	switch rng.Intn(4) {
	case 0:
		kept, either := 0, len(after)
		for id := range before {
			if _, ok := after[id]; ok {
				kept++
			} else {
				either++
			}
		}
		n, err := p.Count()
		if err != nil || n < kept || n > either {
			return fmt.Errorf("Count = %d, %v; %d records are stored before and after the step, %d before or after", n, err, kept, either)
		}
	case 1:
		if indexed {
			user := adm.String(fmt.Sprintf("u%d", rng.Intn(modelUsers)))
			got, err := p.SearchBTree("userIdx", user)
			return checkSearch(fmt.Sprintf("SearchBTree(%s)", user), got, err, before, after, "user_name", hasUser(user))
		}
	case 2:
		if indexed {
			rect := randomRect(rng)
			got, err := p.SearchRTree("locationIndex", rect)
			return checkSearch(fmt.Sprintf("SearchRTree(%v)", rect), got, err, before, after, "location", inRect(rect))
		}
	}
	id := modelID(rng.Intn(modelKeys))
	got, ok, err := p.Lookup([]adm.Value{adm.String(id)})
	if err != nil || !(sameVersion(got, ok, before[id]) || sameVersion(got, ok, after[id])) {
		return fmt.Errorf("Lookup(%s) = %v, %v, %v; before the step %v, after %v", id, got, ok, err, before[id], after[id])
	}
	return nil
}

// sameVersion reports whether a read of (got, ok) is want, nil meaning
// absent.
func sameVersion(got *adm.Record, ok bool, want *adm.Record) bool {
	if want == nil {
		return !ok
	}
	return ok && adm.Equal(got, want)
}

// checkSearch checks the answer of one search, made while a step ran, of the
// index over field, whose records must all pass match (see
// concurrentReads).
func checkSearch(what string, got []*adm.Record, err error, before, after partitionModel, field string, match func(*adm.Record) bool) error {
	if err != nil {
		return fmt.Errorf("%s: %v", what, err)
	}
	seen := map[string]bool{}
	for _, r := range got {
		v, _ := r.Field("id")
		id := string(v.(adm.String))
		if seen[id] {
			return fmt.Errorf("%s returned %s twice", what, id)
		}
		seen[id] = true
		if !match(r) || !(sameVersion(r, true, before[id]) || sameVersion(r, true, after[id])) {
			return fmt.Errorf("%s returned %v; before the step %v, after %v", what, r, before[id], after[id])
		}
	}
	for id, b := range before {
		a, ok := after[id]
		if !ok || seen[id] || !match(b) || !match(a) {
			continue
		}
		vb, _ := b.Field(field)
		if va, _ := a.Field(field); adm.Equal(vb, va) {
			return fmt.Errorf("%s missed %s, which the step leaves at the same index key", what, id)
		}
	}
	return nil
}

// checkPushed asserts that the gauges every tree of mgr pushes into lm read
// what a walk over the open trees (Manager.Stats) adds up to. The two are
// read a moment apart while flushes and merges still run, so a mismatch gets
// a moment to settle; a gauge that drifted never does.
func checkPushed(t *testing.T, step string, lm *lsm.Metrics, mgr *Manager) {
	t.Helper()
	var got, want [3]int64
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		st := mgr.Stats()
		want = [3]int64{int64(st.MemtableBytes), int64(st.Immutables), int64(st.CompactionDebt)}
		got = [3]int64{lm.MemtableBytes.Value(), lm.Immutables.Value(), lm.CompactionDebt.Value()}
		if got == want {
			return
		}
	}
	t.Fatalf("%s: pushed memtable bytes, immutables, debt = %v, the open trees hold %v", step, got, want)
}

// treeDump is the byte-exact content of p: every primary entry, and every
// secondary entry the liveness rule calls live. Stale entries are left out:
// a merge may drop them at any moment.
func treeDump(t *testing.T, p *Partition) []byte {
	t.Helper()
	var out bytes.Buffer
	var fs frameScratch
	dump := func(name string, tr *lsm.Tree, keep func(k, v []byte) bool) {
		fmt.Fprintf(&out, "[%s]", name)
		if err := tr.Scan(nil, nil, func(k, v []byte) bool {
			if keep(k, v) {
				fmt.Fprintf(&out, "%x=%x;", k, v)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	dump("primary", p.primary, func(k, v []byte) bool { return true })
	for _, ix := range p.ds.Indexes {
		dump(ix.Name, p.secondaries[ix.Name], func(k, pk []byte) bool {
			live, err := p.liveEntry(&fs, ix, k, pk, nil)
			if err != nil {
				t.Fatal(err)
			}
			return live
		})
	}
	return out.Bytes()
}

// checkCompacted flushes p and merges every secondary tree: with no frame
// running, the merge filters drop every stale entry, and each secondary must
// hold exactly the entries of the records stored.
func checkCompacted(t *testing.T, step string, p *Partition) {
	t.Helper()
	if err := p.Flush(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	mergeSecondaries(t, p)
	if stale, err := p.CheckIndexes(); err != nil || stale != 0 {
		t.Fatalf("%s: after a merge of every secondary, CheckIndexes = %d stale entries, %v; want none", step, stale, err)
	}
}

// TestPartitionMatchesModel drives seeded random histories — frames of
// 1…128 records with in-frame duplicate keys and replacements of stored
// keys, frames poisoned by an invalid record, deletes, flushes, close and
// reopen — and checks the partition against the model, and the pushed lsm
// gauges against the trees, after every step. While a frame or a delete
// runs, two readers check every read against the model before and after it
// (concurrentReads): the readers take no partition lock. Beside one frame in
// three a full merge of every secondary runs too, its filter probing the
// primary the frame is writing. Every frame is also delivered twice: the
// second delivery (what at-least-once replay does) must leave every tree
// byte-identical but for stale entries. At the end of each history, one
// merge of every secondary leaves exactly the live entries. Seeds 5 and 6
// run against a dataset with no secondary index: the same duplicates inside
// a frame and across frames must still end as the model says.
func TestPartitionMatchesModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		name := fmt.Sprintf("seed%d", seed)
		if seed > 4 {
			name += "-plain"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ds, dir := testDataset(), t.TempDir()
			if seed > 4 {
				ds.Indexes = nil
			}
			// A small memtable so the history crosses flushes and merges, and
			// stale entries and the records that make them stale lie in runs.
			lm := &lsm.Metrics{}
			opt := lsm.Options{MemtableBytes: 16 << 10, Metrics: lm}
			mgr := NewManager("A", dir, opt)
			defer func() {
				mgr.Close()
				checkPushed(t, "after the last Close", lm, mgr)
			}()
			p, err := mgr.OpenPartition(ds)
			if err != nil {
				t.Fatal(err)
			}
			model := partitionModel{}
			steps := 60
			if testing.Short() {
				steps = 30 // the race tier runs this test twenty times
			}
			for i := 0; i < steps; i++ {
				step := fmt.Sprintf("seed %d step %d", seed, i)
				switch op := rng.Intn(10); {
				case op < 5: // a frame
					n := 1 + rng.Intn(128)
					if rng.Intn(3) == 0 {
						n = 1 + rng.Intn(4)
					}
					frame := make([][]byte, 0, n)
					written := map[string]*adm.Record{}
					for len(frame) < n {
						k := rng.Intn(modelKeys)
						if len(written) > 0 && rng.Intn(8) == 0 {
							k = rng.Intn(1 + k/8) // crowd the low keys: in-frame duplicates
						}
						rec := modelRecord(rng, k)
						frame = append(frame, adm.Encode(rec))
						written[modelID(k)] = rec
					}
					step += fmt.Sprintf(" (frame of %d, %d distinct keys)", n, len(written))
					after := maps.Clone(model)
					maps.Copy(after, written)
					stop := concurrentReads(p, model, after, seed*1000+int64(i))
					merged := make(chan error, 1)
					if rng.Intn(3) == 0 {
						go func(p *Partition) {
							for _, tr := range p.secondaries {
								if err := tr.Merge(); err != nil {
									merged <- err
									return
								}
							}
							merged <- nil
						}(p)
					} else {
						merged <- nil
					}
					if err := p.InsertFrame(frame); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					if err := <-merged; err != nil {
						t.Fatalf("%s: a merge beside the frame: %v", step, err)
					}
					once := treeDump(t, p)
					if err := p.InsertFrame(frame); err != nil {
						t.Fatalf("%s, second delivery: %v", step, err)
					}
					if twice := treeDump(t, p); !bytes.Equal(once, twice) {
						t.Fatalf("%s: delivering the frame twice changed a tree", step)
					}
					if err := stop(); err != nil {
						t.Fatalf("%s: a concurrent read: %v", step, err)
					}
					model = after
				case op < 7: // a frame one invalid record poisons
					n := 1 + rng.Intn(16)
					frame := make([][]byte, n)
					for j := range frame {
						frame[j] = adm.Encode(modelRecord(rng, rng.Intn(modelKeys)))
					}
					frame[rng.Intn(n)] = invalidRecord(rng)
					step += fmt.Sprintf(" (poisoned frame of %d)", n)
					before := treeDump(t, p)
					if err := p.InsertFrame(frame); !isDataError(err) {
						t.Fatalf("%s: InsertFrame = %v, want a data error", step, err)
					}
					if after := treeDump(t, p); !bytes.Equal(before, after) {
						t.Fatalf("%s: a rejected frame modified the partition", step)
					}
				case op < 8:
					id := modelID(rng.Intn(modelKeys))
					step += " (delete " + id + ")"
					after := maps.Clone(model)
					delete(after, id)
					stop := concurrentReads(p, model, after, seed*1000+int64(i))
					if err := p.Delete([]adm.Value{adm.String(id)}); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					if err := stop(); err != nil {
						t.Fatalf("%s: a concurrent read: %v", step, err)
					}
					model = after
				case op < 9:
					step += " (flush)"
					if err := p.Flush(); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
				default:
					step += " (close + reopen)"
					if err := mgr.Close(); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					checkPushed(t, step+", closed", lm, mgr)
					mgr = NewManager("A", dir, opt)
					if p, err = mgr.OpenPartition(ds); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
				}
				model.check(t, step, rng, p)
				checkPushed(t, step, lm, mgr)
			}
			checkCompacted(t, fmt.Sprintf("seed %d, end", seed), p)
			model.check(t, fmt.Sprintf("seed %d, compacted", seed), rng, p)
		})
	}
}

// TestSearchReportsNonRecordValue: a CRC-valid value in the primary tree
// that is not a record is corruption every reader reports as an error —
// never a panic raised while p.mu is held.
func TestSearchReportsNonRecordValue(t *testing.T) {
	p := openTestPartition(t, testDataset())
	rec := tweetRec("t1", "alice", &adm.Point{X: 5, Y: 5})
	insertRecs(t, p, rec)
	pk, err := p.ds.PrimaryKeyOf(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.primary.Put(pk, adm.Encode(adm.String("not a record"))); err != nil {
		t.Fatal(err)
	}
	if got, err := p.SearchBTree("userIdx", adm.String("alice")); err == nil {
		t.Fatalf("SearchBTree over a non-record value = %v, want an error", got)
	}
	rect := adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 10, Y: 10}}
	if got, err := p.SearchRTree("locationIndex", rect); err == nil {
		t.Fatalf("SearchRTree over a non-record value = %v, want an error", got)
	}
	if _, _, err := p.Lookup([]adm.Value{adm.String("t1")}); err == nil {
		t.Fatal("Lookup of a non-record value succeeded")
	}
	if err := p.VerifyIndexes(); err == nil {
		t.Fatal("VerifyIndexes accepted a non-record value")
	}
}
