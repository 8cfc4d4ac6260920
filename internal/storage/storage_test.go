package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

func testDataset(nodes ...string) *Dataset {
	if len(nodes) == 0 {
		nodes = []string{"A"}
	}
	rt := adm.MustRecordType("ProcessedTweet", true, []adm.Field{
		{Name: "id", Type: adm.TString},
		{Name: "user_name", Type: adm.TString},
		{Name: "location", Type: adm.TPoint, Optional: true},
		{Name: "message_text", Type: adm.TString},
	})
	return &Dataset{
		Dataverse:  "feeds",
		Name:       "ProcessedTweets",
		Type:       rt,
		PrimaryKey: []string{"id"},
		NodeGroup:  nodes,
		Indexes: []IndexDecl{
			{Name: "userIdx", Field: "user_name", Kind: BTree},
			{Name: "locationIndex", Field: "location", Kind: RTree},
		},
	}
}

func tweetRec(id, user string, pt *adm.Point) *adm.Record {
	b := (&adm.RecordBuilder{}).
		Add("id", adm.String(id)).
		Add("user_name", adm.String(user)).
		Add("message_text", adm.String("msg "+id))
	if pt != nil {
		b.Add("location", *pt)
	}
	return b.MustBuild()
}

func openTestPartition(t *testing.T, ds *Dataset) *Partition {
	t.Helper()
	m := NewManager(ds.NodeGroup[0], t.TempDir(), lsm.Options{})
	t.Cleanup(func() { m.Close() })
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// insertRecs writes recs as one frame, failing the test on error.
func insertRecs(t testing.TB, p *Partition, recs ...*adm.Record) {
	t.Helper()
	if err := p.InsertFrame(encodeFrame(recs...)); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndLookup(t *testing.T) {
	p := openTestPartition(t, testDataset())
	rec := tweetRec("t1", "alice", &adm.Point{X: 10, Y: 20})
	insertRecs(t, p, rec)
	got, ok, err := p.Lookup([]adm.Value{adm.String("t1")})
	if err != nil || !ok {
		t.Fatalf("Lookup = %v, %v", ok, err)
	}
	if !adm.Equal(got, rec) {
		t.Fatalf("Lookup returned %s, want %s", got, rec)
	}
	if _, ok, _ := p.Lookup([]adm.Value{adm.String("absent")}); ok {
		t.Fatal("Lookup(absent) reported present")
	}
}

func TestInsertRejectsInvalidRecord(t *testing.T) {
	p := openTestPartition(t, testDataset())
	bad := (&adm.RecordBuilder{}).Add("id", adm.String("x")).MustBuild() // missing required fields
	if err := p.InsertFrame(encodeFrame(bad)); err == nil {
		t.Fatal("InsertFrame accepted record violating the dataset type")
	}
	noKey := (&adm.RecordBuilder{}).
		Add("user_name", adm.String("u")).
		Add("message_text", adm.String("m")).
		MustBuild()
	if err := p.InsertFrame(encodeFrame(noKey)); err == nil {
		t.Fatal("InsertFrame accepted record without primary key")
	}
}

func TestUpsertReplaces(t *testing.T) {
	p := openTestPartition(t, testDataset())
	insertRecs(t, p, tweetRec("t1", "alice", nil))
	insertRecs(t, p, tweetRec("t1", "bob", nil))
	got, _, _ := p.Lookup([]adm.Value{adm.String("t1")})
	if u, _ := got.Field("user_name"); u.(adm.String) != "bob" {
		t.Fatalf("after upsert user = %v, want bob", u)
	}
	n, _ := p.Count()
	if n != 1 {
		t.Fatalf("Count after upsert = %d, want 1", n)
	}
	// The old secondary entry is stale: the search must refuse it.
	recs, err := p.SearchBTree("userIdx", adm.String("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("stale secondary entry: found %d records for alice", len(recs))
	}
}

func TestDeleteMaintainsSecondaries(t *testing.T) {
	p := openTestPartition(t, testDataset())
	insertRecs(t, p, tweetRec("t1", "alice", &adm.Point{X: 5, Y: 5}))
	if err := p.Delete([]adm.Value{adm.String("t1")}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := p.Lookup([]adm.Value{adm.String("t1")}); ok {
		t.Fatal("record present after delete")
	}
	recs, _ := p.SearchBTree("userIdx", adm.String("alice"))
	if len(recs) != 0 {
		t.Fatal("secondary entry survived delete")
	}
	recs, _ = p.SearchRTree("locationIndex", adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 10, Y: 10}})
	if len(recs) != 0 {
		t.Fatal("rtree entry survived delete")
	}
}

func TestSecondaryBTreeSearch(t *testing.T) {
	p := openTestPartition(t, testDataset())
	for i := 0; i < 50; i++ {
		user := fmt.Sprintf("user%d", i%5)
		insertRecs(t, p, tweetRec(fmt.Sprintf("t%02d", i), user, nil))
	}
	recs, err := p.SearchBTree("userIdx", adm.String("user3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("SearchBTree(user3) = %d records, want 10", len(recs))
	}
	for _, r := range recs {
		if u, _ := r.Field("user_name"); u.(adm.String) != "user3" {
			t.Fatalf("wrong record in result: %s", r)
		}
	}
}

func TestSecondarySearchUnknownIndex(t *testing.T) {
	p := openTestPartition(t, testDataset())
	if _, err := p.SearchBTree("nope", adm.String("x")); err == nil {
		t.Fatal("SearchBTree on unknown index succeeded")
	}
	if _, err := p.SearchRTree("userIdx", adm.Rectangle{}); err == nil {
		t.Fatal("SearchRTree on btree index succeeded")
	}
}

func TestRTreeRectangleQuery(t *testing.T) {
	p := openTestPartition(t, testDataset())
	// Points on a 10x10 grid at integer+0.5 coordinates.
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			pt := adm.Point{X: float64(x) + 0.5, Y: float64(y) + 0.5}
			insertRecs(t, p, tweetRec(fmt.Sprintf("t%d-%d", x, y), "u", &pt))
		}
	}
	rect := adm.Rectangle{Low: adm.Point{X: 2, Y: 2}, High: adm.Point{X: 5, Y: 5}}
	recs, err := p.SearchRTree("locationIndex", rect)
	if err != nil {
		t.Fatal(err)
	}
	// Points with x,y in {2.5, 3.5, 4.5} are inside: 3x3 = 9.
	if len(recs) != 9 {
		t.Fatalf("rect query returned %d records, want 9", len(recs))
	}
	for _, r := range recs {
		loc, _ := r.Field("location")
		if !rect.Contains(loc.(adm.Point)) {
			t.Fatalf("record outside rect: %s", r)
		}
	}
}

func TestRTreeNegativeCoordinates(t *testing.T) {
	p := openTestPartition(t, testDataset())
	pts := []adm.Point{{X: -124.27, Y: 33.13}, {X: -66.18, Y: 48.57}, {X: 100, Y: -50}}
	for i, pt := range pts {
		pt := pt
		insertRecs(t, p, tweetRec(fmt.Sprintf("t%d", i), "u", &pt))
	}
	us := adm.Rectangle{Low: adm.Point{X: -130, Y: 30}, High: adm.Point{X: -60, Y: 50}}
	recs, err := p.SearchRTree("locationIndex", us)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("US query returned %d, want 2", len(recs))
	}
}

func TestOptionalIndexedFieldAbsent(t *testing.T) {
	p := openTestPartition(t, testDataset())
	insertRecs(t, p, tweetRec("t1", "alice", nil))
	recs, _ := p.SearchRTree("locationIndex",
		adm.Rectangle{Low: adm.Point{X: -180, Y: -90}, High: adm.Point{X: 180, Y: 90}})
	if len(recs) != 0 {
		t.Fatal("record without location appeared in rtree result")
	}
}

func TestScanOrderAndCount(t *testing.T) {
	p := openTestPartition(t, testDataset())
	for i := 0; i < 30; i++ {
		insertRecs(t, p, tweetRec(fmt.Sprintf("t%02d", 29-i), "u", nil))
	}
	var ids []string
	p.Scan(func(r *adm.Record) bool {
		id, _ := r.Field("id")
		ids = append(ids, string(id.(adm.String)))
		return true
	})
	if len(ids) != 30 {
		t.Fatalf("scan saw %d records, want 30", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("scan out of key order at %d: %s after %s", i, ids[i], ids[i-1])
		}
	}
	if n, _ := p.Count(); n != 30 {
		t.Fatalf("Count = %d, want 30", n)
	}
}

func TestPartitionOfIsStableAndInRange(t *testing.T) {
	ds := testDataset("A", "B", "C")
	f := func(id string) bool {
		rec := tweetRec(id, "u", nil)
		p1, err1 := ds.PartitionOf(rec)
		p2, err2 := ds.PartitionOf(rec)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1 == p2 && p1 >= 0 && p1 < 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDistribution(t *testing.T) {
	ds := testDataset("A", "B", "C", "D")
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		pi, err := ds.PartitionOf(tweetRec(fmt.Sprintf("id-%d", i), "u", nil))
		if err != nil {
			t.Fatal(err)
		}
		counts[pi]++
	}
	for i, n := range counts {
		if n < 500 || n > 1500 {
			t.Fatalf("partition %d got %d/4000 records; hash badly skewed: %v", i, n, counts)
		}
	}
}

func TestKeyHashFuncMatchesPartitionOf(t *testing.T) {
	ds := testDataset("A", "B", "C")
	hash := ds.KeyHashFunc()
	for i := 0; i < 100; i++ {
		rec := tweetRec(fmt.Sprintf("id-%d", i), "u", nil)
		want, _ := ds.PartitionOf(rec)
		got := int(hash(adm.Encode(rec)) % 3)
		if got != want {
			t.Fatalf("KeyHashFunc partition %d, PartitionOf %d", got, want)
		}
	}
}

func TestManagerOpenPartitionIdempotent(t *testing.T) {
	ds := testDataset("A")
	m := NewManager("A", t.TempDir(), lsm.Options{})
	defer m.Close()
	p1, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("OpenPartition returned distinct partitions for same dataset")
	}
	if got := m.Partition(ds.QualifiedName()); got != p1 {
		t.Fatal("Partition lookup mismatch")
	}
}

func TestManagerRejectsForeignNode(t *testing.T) {
	ds := testDataset("A")
	m := NewManager("B", t.TempDir(), lsm.Options{})
	defer m.Close()
	if _, err := m.OpenPartition(ds); err == nil {
		t.Fatal("OpenPartition succeeded for node outside nodegroup")
	}
}

func TestPartitionPersistsAcrossReopen(t *testing.T) {
	ds := testDataset("A")
	dir := t.TempDir()
	m := NewManager("A", dir, lsm.Options{})
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	insertRecs(t, p, tweetRec("t1", "alice", nil))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager("A", dir, lsm.Options{})
	defer m2.Close()
	p2, err := m2.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := p2.Lookup([]adm.Value{adm.String("t1")}); !ok {
		t.Fatal("record lost across manager reopen")
	}
}

func TestDatasetValidate(t *testing.T) {
	good := testDataset("A")
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate(good) = %v", err)
	}
	bad := testDataset("A")
	bad.PrimaryKey = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("dataset without primary key validated")
	}
	dup := testDataset("A")
	dup.Indexes = append(dup.Indexes, IndexDecl{Name: "userIdx", Field: "x", Kind: BTree})
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate index name validated")
	}
}

func TestPrefixUpperBound(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte{0x01}, []byte{0x02}},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{0xAB, 0x00}, []byte{0xAB, 0x01}},
	}
	for _, c := range cases {
		got := prefixUpperBound(c.in)
		if string(got) != string(c.want) {
			t.Errorf("prefixUpperBound(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

func TestPropertyInsertLookupRoundTrip(t *testing.T) {
	p := openTestPartition(t, testDataset())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		id := fmt.Sprintf("id-%d", r.Int63())
		pt := adm.Point{X: r.Float64()*360 - 180, Y: r.Float64()*180 - 90}
		rec := tweetRec(id, fmt.Sprintf("u%d", r.Intn(10)), &pt)
		if err := p.InsertFrame(encodeFrame(rec)); err != nil {
			return false
		}
		got, ok, err := p.Lookup([]adm.Value{adm.String(id)})
		return err == nil && ok && adm.Equal(got, rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionIdxDoesNotAllocate: every routed lookup finds its partition
// through PartitionIdx, so it must not build a key to do so.
func TestPartitionIdxDoesNotAllocate(t *testing.T) {
	ds := testDataset()
	m := NewManager("A", t.TempDir(), lsm.Options{})
	t.Cleanup(func() { m.Close() })
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	name := ds.QualifiedName()
	if allocs := testing.AllocsPerRun(100, func() {
		if m.PartitionIdx(name, 0) != p {
			t.Fatal("PartitionIdx lost the open partition")
		}
	}); allocs != 0 {
		t.Errorf("PartitionIdx allocates %.1f times per call, want 0", allocs)
	}
	if m.Partition(name) != p || m.PartitionIdx(name, 1) != nil {
		t.Fatal("Partition/PartitionIdx disagree with the open set")
	}
}
