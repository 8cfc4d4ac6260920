package storage

import (
	"errors"
	"fmt"
	"strings"
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
// records leaves their old secondary index entries stale: no search returns
// the record through them.
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
// one's secondary entries are stale — exactly as two one-record frames.
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

// TestInsertFrameRefusesOverlongVarints: a key read off a record's bytes is
// only the key Lookup and the index searches build when those bytes are the
// one encoding AppendValue writes. A string whose length is written long
// (0x81 0x00 is 1) — in the primary key, or in the value of an indexed field
// — must be refused as a data error with the partition untouched; stored, it
// would sit under a key no read builds, and an upsert of the same key would
// add a second record beside it.
func TestInsertFrameRefusesOverlongVarints(t *testing.T) {
	fields := [][2]string{{"id", "a"}, {"user_name", "u"}, {"message_text", "m"}}
	encode := func(long string) []byte {
		enc := []byte{byte(adm.TagRecord), byte(len(fields))}
		for _, f := range fields {
			enc = append(enc, byte(len(f[0])))
			enc = append(enc, f[0]...)
			if f[0] == long {
				enc = append(enc, byte(adm.TagString), 0x81, 0x00)
			} else {
				enc = append(enc, byte(adm.TagString), byte(len(f[1])))
			}
			enc = append(enc, f[1]...)
		}
		return enc
	}
	for _, long := range []string{"id", "user_name"} {
		p := openTestPartition(t, testDataset())
		if err := p.InsertFrame([][]byte{encode(long)}); !isDataError(err) {
			t.Fatalf("%s written long: InsertFrame = %v, want a data error", long, err)
		}
		if n, _ := p.Count(); n != 0 {
			t.Fatalf("%s written long: Count = %d after the refused frame, want 0", long, n)
		}
		if err := p.InsertFrame([][]byte{encode("")}); err != nil {
			t.Fatal(err)
		}
		if n, _ := p.Count(); n != 1 {
			t.Fatalf("%s written long: Count = %d after one upsert, want 1", long, n)
		}
		if _, ok, err := p.Lookup([]adm.Value{adm.String("a")}); !ok || err != nil {
			t.Fatalf("%s written long: Lookup(a) = %v, %v", long, ok, err)
		}
		if got, err := p.SearchBTree("userIdx", adm.String("u")); len(got) != 1 || err != nil {
			t.Fatalf("%s written long: SearchBTree(u) = %d results, %v; want 1", long, len(got), err)
		}
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

// TestInsertFrameRefusalTexts: one frame mixes good records with one refusal
// of each kind. Each refused record is named by its position with the exact
// text the store has always given, and the partition is left untouched. The
// Tweet's user is a closed nested record and its tags a list of strings: one
// of each shape the type check walks.
func TestInsertFrameRefusalTexts(t *testing.T) {
	user := adm.MustRecordType("User", false, []adm.Field{
		{Name: "screen_name", Type: adm.TString},
		{Name: "friends_count", Type: adm.TInt64},
	})
	ds := testDataset()
	ds.Indexes = nil
	ds.Type = adm.MustRecordType("Tweet", true, []adm.Field{
		{Name: "id", Type: adm.TString},
		{Name: "user", Type: user},
		{Name: "tags", Type: &adm.OrderedListType{Item: adm.TString}, Optional: true},
		{Name: "message_text", Type: adm.TString},
	})
	transcode := func(text string) []byte {
		enc, err := adm.Transcode(nil, []byte(text))
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	good := func(id string) []byte {
		return transcode(`{"id":"` + id + `","user":{"screen_name":"a","friends_count":1},"tags":["x"],"message_text":"m"}`)
	}
	record := func(fields ...[]byte) []byte {
		enc := []byte{byte(adm.TagRecord), byte(len(fields))}
		for _, f := range fields {
			enc = append(enc, f...)
		}
		return enc
	}
	field := func(name string, enc []byte) []byte {
		return append(append([]byte{byte(len(name))}, name...), enc...)
	}
	str := func(s string) []byte { return adm.Encode(adm.String(s)) }
	truncated := good("t")
	truncated = truncated[:len(truncated)-2]
	rows := []struct {
		name string
		rec  []byte
		want string // "" for a record the store accepts
	}{
		{"good", good("g0"), ""},
		{"truncated bytes", truncated, `adm: truncated string value`},
		{"duplicate field at depth 2", record(
			field("id", str("d")),
			field("user", record(field("screen_name", str("a")), field("screen_name", str("b")))),
			field("message_text", str("m")),
		), `adm: duplicate field "screen_name" in record`},
		{"good", good("g1"), ""},
		{"undeclared field in closed type", transcode(`{"id":"u","user":{"screen_name":"a","friends_count":1,"lang":"en"},"message_text":"m"}`),
			`adm: field "user": adm: undeclared field "lang" in closed type User`},
		{"nested type mismatch", transcode(`{"id":"n","user":{"screen_name":"a","friends_count":"x"},"message_text":"m"}`),
			`adm: field "user": adm: field "friends_count": adm: value of type string does not conform to int64`},
		{"list item mismatch", transcode(`{"id":"l","user":{"screen_name":"a","friends_count":1},"tags":["a",1],"message_text":"m"}`),
			`adm: field "tags": adm: list item 1: adm: value of type int64 does not conform to string`},
		{"missing required field", transcode(`{"id":"r","user":{"screen_name":"a","friends_count":1}}`),
			`adm: missing required field "message_text" of type Tweet`},
		{"null for non-optional field", transcode(`{"id":"z","user":{"screen_name":"a","friends_count":1},"message_text":null}`),
			`adm: null value for non-optional field "message_text" of type Tweet`},
		{"good", good("g2"), ""},
	}
	p := openTestPartition(t, ds)
	frame := make([][]byte, len(rows))
	for i, r := range rows {
		frame[i] = r.rec
	}
	err := p.InsertFrame(frame)
	var de *DataError
	if !errors.As(err, &de) {
		t.Fatalf("InsertFrame = %v, want a *DataError", err)
	}
	var want []string
	for i, r := range rows {
		if r.want != "" {
			want = append(want, fmt.Sprintf("%d %s", i, r.want))
		}
	}
	var got []string
	for _, r := range de.Refused {
		got = append(got, fmt.Sprintf("%d %v", r.Pos, r.Err))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("refusals:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if n, _ := p.Count(); n != 0 {
		t.Fatalf("Count = %d after the refused frame, want 0", n)
	}
}

// TestFrameScratchAddAllocs: validating and keying a frame of 128 records
// allocates nothing on a dataset without indexes, and only each record's
// exact-size primary key on an indexed one.
func TestFrameScratchAddAllocs(t *testing.T) {
	const perFrame = 128
	plain := testDataset()
	plain.Indexes = nil
	frame := make([][]byte, perFrame)
	for r := range frame {
		frame[r] = adm.Encode(tweetRec(fmt.Sprintf("r%03d", r), "u", &adm.Point{X: float64(r), Y: 1}))
	}
	for _, tc := range []struct {
		ds       *Dataset
		maxAlloc float64
	}{
		{plain, 0},
		{testDataset(), perFrame},
	} {
		fs := frameScratch{prim: lsm.NewBatch(0)}
		add := func() {
			for _, rec := range frame {
				if err := fs.add(tc.ds, rec); err != nil {
					t.Fatal(err)
				}
			}
			fs.release()
		}
		add() // warm: scratch grown
		if allocs := testing.AllocsPerRun(20, add); allocs > tc.maxAlloc {
			t.Errorf("%d indexes: adding %d records allocates %.1f times, want ≤ %.0f",
				len(tc.ds.Indexes), perFrame, allocs, tc.maxAlloc)
		}
	}
}
