package storage

import (
	"bytes"
	"fmt"
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
// is a point on a small grid, absent, or null.
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
		b.Add("location", adm.Point{X: float64(rng.Intn(40) - 20), Y: float64(rng.Intn(20) - 10)})
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
			if v, _ := r.Field("user_name"); adm.Equal(v, user) {
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
		lo := adm.Point{X: float64(rng.Intn(40) - 25), Y: float64(rng.Intn(20) - 12)}
		rect := adm.Rectangle{Low: lo, High: adm.Point{X: lo.X + float64(rng.Intn(30)), Y: lo.Y + float64(rng.Intn(15))}}
		var want []string
		for id, r := range m {
			if v, ok := r.Field("location"); ok {
				if pt, isPt := v.(adm.Point); isPt && rect.Contains(pt) {
					want = append(want, id)
				}
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

// treeDump is the byte-exact live content of every tree of p.
func treeDump(t *testing.T, p *Partition) []byte {
	t.Helper()
	var out bytes.Buffer
	dump := func(name string, tr *lsm.Tree) {
		fmt.Fprintf(&out, "[%s]", name)
		if err := tr.Scan(nil, nil, func(k, v []byte) bool {
			fmt.Fprintf(&out, "%x=%x;", k, v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	dump("primary", p.primary)
	for _, ix := range p.ds.Indexes {
		dump(ix.Name, p.secondaries[ix.Name])
	}
	return out.Bytes()
}

// TestPartitionMatchesModel drives seeded random histories — frames of
// 1…128 records with in-frame duplicate keys and replacements of stored
// keys, frames poisoned by an invalid record, deletes, flushes, close and
// reopen — and checks the partition against the model, and the pushed lsm
// gauges against the trees, after every step.
// Every frame is also delivered twice: the second delivery (what
// at-least-once replay does) must leave every tree byte-identical. Seeds 5
// and 6 run against a dataset with no secondary index, whose InsertFrame
// does not read the records it replaces: the same duplicates inside a frame
// and across frames must still end as the model says.
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
			// A small memtable so the history crosses flushes and merges and
			// the replace path reads old versions from runs.
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
			for i := 0; i < 60; i++ {
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
					if err := p.InsertFrame(frame); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					once := treeDump(t, p)
					if err := p.InsertFrame(frame); err != nil {
						t.Fatalf("%s, second delivery: %v", step, err)
					}
					if twice := treeDump(t, p); !bytes.Equal(once, twice) {
						t.Fatalf("%s: delivering the frame twice changed a tree", step)
					}
					for id, rec := range written {
						model[id] = rec
					}
				case op < 7: // a frame one invalid record poisons
					n := 1 + rng.Intn(16)
					frame := make([][]byte, n)
					for j := range frame {
						frame[j] = adm.Encode(modelRecord(rng, rng.Intn(modelKeys)))
					}
					frame[rng.Intn(n)] = invalidRecord(rng)
					step += fmt.Sprintf(" (poisoned frame of %d)", n)
					before := treeDump(t, p)
					if err := p.InsertFrame(frame); !IsDataError(err) {
						t.Fatalf("%s: InsertFrame = %v, want a data error", step, err)
					}
					if after := treeDump(t, p); !bytes.Equal(before, after) {
						t.Fatalf("%s: a rejected frame modified the partition", step)
					}
				case op < 8:
					id := modelID(rng.Intn(modelKeys))
					step += " (delete " + id + ")"
					if err := p.Delete([]adm.Value{adm.String(id)}); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					delete(model, id)
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
