package storage

import (
	"fmt"
	"sync"
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

func encodeFrame(recs ...*adm.Record) [][]byte {
	out := make([][]byte, 0, len(recs))
	for _, r := range recs {
		out = append(out, adm.Encode(r))
	}
	return out
}

// TestInsertFrameReplacesStored verifies a frame replacing previously stored
// records unhooks their old secondary index entries.
func TestInsertFrameReplacesStored(t *testing.T) {
	p := openTestPartition(t, testDataset())
	if err := p.InsertFrame(encodeFrame(tweetRec("t1", "alice", &adm.Point{X: 1, Y: 1}))); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertFrame(encodeFrame(tweetRec("t1", "bob", &adm.Point{X: 50, Y: 50}))); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Count(); n != 1 {
		t.Fatalf("Count = %d after in-place replace, want 1", n)
	}
	if got, _ := p.SearchBTree("userIdx", adm.String("alice")); len(got) != 0 {
		t.Fatalf("stale btree entry for replaced record: %d results", len(got))
	}
	if got, _ := p.SearchBTree("userIdx", adm.String("bob")); len(got) != 1 {
		t.Fatalf("SearchBTree(bob) = %d results, want 1", len(got))
	}
	oldRect := adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 2, Y: 2}}
	if got, _ := p.SearchRTree("locationIndex", oldRect); len(got) != 0 {
		t.Fatalf("stale rtree entry for replaced record: %d results", len(got))
	}
}

// TestInsertFrameInFrameDuplicate verifies that when one frame carries two
// records with the same primary key, the later record wins and the earlier
// one leaves no secondary index residue — exactly as two one-record frames.
func TestInsertFrameInFrameDuplicate(t *testing.T) {
	p := openTestPartition(t, testDataset())
	err := p.InsertFrame(encodeFrame(
		tweetRec("dup", "first", &adm.Point{X: 1, Y: 1}),
		tweetRec("other", "bystander", nil),
		tweetRec("dup", "second", &adm.Point{X: 60, Y: 60}),
	))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Count(); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	got, ok, err := p.Lookup([]adm.Value{adm.String("dup")})
	if err != nil || !ok {
		t.Fatalf("Lookup(dup) = %v, %v", ok, err)
	}
	if u, _ := got.Field("user_name"); !adm.Equal(u, adm.String("second")) {
		t.Fatalf("Lookup(dup).user_name = %s, want second (last writer)", u)
	}
	if res, _ := p.SearchBTree("userIdx", adm.String("first")); len(res) != 0 {
		t.Fatalf("stale btree entry from shadowed in-frame record: %d results", len(res))
	}
	if res, _ := p.SearchBTree("userIdx", adm.String("second")); len(res) != 1 {
		t.Fatalf("SearchBTree(second) = %d results, want 1", len(res))
	}
	rect := adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 2, Y: 2}}
	if res, _ := p.SearchRTree("locationIndex", rect); len(res) != 0 {
		t.Fatalf("stale rtree entry from shadowed in-frame record: %d results", len(res))
	}
}

// TestInsertFrameValidationAtomic verifies a frame containing any invalid
// record fails without mutating the partition: validation runs for the
// whole frame before the first tree write.
func TestInsertFrameValidationAtomic(t *testing.T) {
	p := openTestPartition(t, testDataset())
	insertRecs(t, p, tweetRec("kept", "alice", nil))
	bad := (&adm.RecordBuilder{}).Add("id", adm.String("bad")).MustBuild() // missing required fields
	err := p.InsertFrame([][]byte{
		adm.Encode(tweetRec("g1", "bob", nil)),
		adm.Encode(bad),
		adm.Encode(tweetRec("g2", "carol", nil)),
	})
	if err == nil {
		t.Fatal("InsertFrame accepted a frame with an invalid record")
	}
	n, _ := p.Count()
	if n != 1 {
		t.Fatalf("Count = %d after rejected frame, want 1 (partition untouched)", n)
	}
	for _, id := range []string{"g1", "g2", "bad"} {
		if _, ok, _ := p.Lookup([]adm.Value{adm.String(id)}); ok {
			t.Fatalf("rejected frame leaked record %q into the partition", id)
		}
	}
	// A record with a missing primary key is also rejected frame-wide.
	noPK := (&adm.RecordBuilder{}).
		Add("user_name", adm.String("x")).
		Add("message_text", adm.String("y")).
		MustBuild()
	if err := p.InsertFrame([][]byte{adm.Encode(noPK)}); err == nil {
		t.Fatal("InsertFrame accepted a record lacking its primary key")
	}
}

// TestInsertFrameGarbageRejected feeds structurally broken bytes.
func TestInsertFrameGarbageRejected(t *testing.T) {
	p := openTestPartition(t, testDataset())
	enc := adm.Encode(tweetRec("t1", "alice", nil))
	for _, recs := range [][][]byte{
		{{}},                // empty
		{{0xEE, 0x01}},      // unknown tag
		{enc[:len(enc)-2]},  // truncated
		{append(enc, 0x00)}, // trailing byte
		{adm.Encode(adm.String("not a record"))},
	} {
		if err := p.InsertFrame(recs); err == nil {
			t.Fatalf("InsertFrame accepted malformed input %x", recs[0])
		}
	}
	if n, _ := p.Count(); n != 0 {
		t.Fatalf("Count = %d after rejected frames, want 0", n)
	}
}

// TestInsertFrameConcurrent drives InsertFrame concurrently across several
// partitions — and concurrently with readers on each partition — to give the
// race detector a workout over the batched write path.
func TestInsertFrameConcurrent(t *testing.T) {
	const (
		parts        = 4
		writersPer   = 2
		framesEach   = 10
		recsPerFrame = 16
	)
	ps := make([]*Partition, parts)
	for i := range ps {
		ds := testDataset()
		m := NewManager(ds.NodeGroup[0], t.TempDir(), lsm.Options{})
		t.Cleanup(func() { m.Close() })
		p, err := m.OpenPartition(ds)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}

	var wg sync.WaitGroup
	errCh := make(chan error, parts*(writersPer+1))
	for pi, p := range ps {
		for w := 0; w < writersPer; w++ {
			wg.Add(1)
			go func(p *Partition, pi, w int) {
				defer wg.Done()
				for fi := 0; fi < framesEach; fi++ {
					recs := make([][]byte, 0, recsPerFrame)
					for ri := 0; ri < recsPerFrame; ri++ {
						// Overlapping ids across writers exercise the
						// replace path under contention.
						id := fmt.Sprintf("p%d-r%d", pi, (w*framesEach*recsPerFrame+fi*recsPerFrame+ri)%64)
						pt := &adm.Point{X: float64(ri), Y: float64(fi)}
						recs = append(recs, adm.Encode(tweetRec(id, fmt.Sprintf("u%d", ri%3), pt)))
					}
					if err := p.InsertFrame(recs); err != nil {
						errCh <- err
						return
					}
				}
			}(p, pi, w)
		}
		// One concurrent reader per partition.
		wg.Add(1)
		go func(p *Partition, pi int) {
			defer wg.Done()
			for i := 0; i < framesEach*2; i++ {
				if _, _, err := p.Lookup([]adm.Value{adm.String(fmt.Sprintf("p%d-r%d", pi, i%64))}); err != nil {
					errCh <- err
					return
				}
				if _, err := p.SearchBTree("userIdx", adm.String("u1")); err != nil {
					errCh <- err
					return
				}
			}
		}(p, pi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for pi, p := range ps {
		n, err := p.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || n > 64 {
			t.Fatalf("partition %d Count = %d, want 1..64 (overlapping upserts)", pi, n)
		}
	}
}

// TestInsertFrameAllocs: in steady state a frame's keys cost nothing on a
// dataset without indexes — the trees copy them out of scratch — and one
// allocation per record on an indexed one, where every secondary entry keeps
// its record's primary key as its value.
func TestInsertFrameAllocs(t *testing.T) {
	const perFrame, runs = 128, 20
	plain := testDataset()
	plain.Indexes = nil
	for _, tc := range []struct {
		ds       *Dataset
		maxAlloc float64
	}{
		{plain, 1},
		{testDataset(), perFrame + 2},
	} {
		m := NewManager("A", t.TempDir(), lsm.Options{MemtableBytes: 1 << 30})
		t.Cleanup(func() { m.Close() })
		p, err := m.OpenPartition(tc.ds)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh keys every frame, encoded up front: the partition retains
		// the record bytes.
		frames := make([][][]byte, 2*runs+2)
		for f := range frames {
			frames[f] = make([][]byte, perFrame)
			for r := range frames[f] {
				pt := &adm.Point{X: float64(r), Y: float64(f)}
				frames[f][r] = adm.Encode(tweetRec(fmt.Sprintf("f%03d-r%03d", f, r), "u", pt))
			}
		}
		next := 0
		insert := func() {
			if err := p.InsertFrame(frames[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for next < runs { // warm: scratch, batches and memtable chunks grown
			insert()
		}
		if allocs := testing.AllocsPerRun(runs, insert); allocs > tc.maxAlloc {
			t.Errorf("%d indexes: InsertFrame of %d records allocates %.1f times, want ≤ %.0f",
				len(tc.ds.Indexes), perFrame, allocs, tc.maxAlloc)
		}
	}
}
