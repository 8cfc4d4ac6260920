package storage

import (
	"strings"
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

func TestReplicaOf(t *testing.T) {
	ds := testDataset("A", "B", "C")
	ds.Replicated = true
	cases := map[int]string{0: "B", 1: "C", 2: "A"}
	for i, want := range cases {
		if got := ds.ReplicaOf(i); got != want {
			t.Errorf("ReplicaOf(%d) = %q, want %q", i, got, want)
		}
	}
	if ds.ReplicaOf(-1) != "" || ds.ReplicaOf(3) != "" {
		t.Error("out-of-range ReplicaOf should be empty")
	}
	ds.Replicated = false
	if ds.ReplicaOf(0) != "" {
		t.Error("ReplicaOf on unreplicated dataset should be empty")
	}
	single := testDataset("A")
	single.Replicated = true
	if single.ReplicaOf(0) != "" {
		t.Error("single-node nodegroup cannot host a replica")
	}
}

func TestOpenPartitionIdxAndPromotion(t *testing.T) {
	ds := testDataset("A", "B")
	ds.Replicated = true
	mA := NewManager("A", t.TempDir(), lsm.Options{})
	defer mA.Close()

	// A hosts its own partition 0 and B's replica (partition 1).
	p0, err := mA.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Index() != 0 {
		t.Fatalf("own partition index = %d", p0.Index())
	}
	r1, err := mA.OpenPartitionIdx(ds, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Index() != 1 || r1 == p0 {
		t.Fatal("replica partition wrong")
	}
	// Lookups by index find both; Partition() returns the lowest index.
	if mA.PartitionIdx(ds.QualifiedName(), 0) != p0 || mA.PartitionIdx(ds.QualifiedName(), 1) != r1 {
		t.Fatal("PartitionIdx lookups wrong")
	}
	if mA.Partition(ds.QualifiedName()) != p0 {
		t.Fatal("Partition() should return the lowest index")
	}
	// Re-opening the replica slot as a "primary" (post-promotion) returns
	// the same partition with its data.
	insertRecs(t, r1, tweetRec("t1", "u", nil))
	again, err := mA.OpenPartitionIdx(ds, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if again != r1 {
		t.Fatal("promotion reopened a different partition")
	}
	if _, ok, _ := again.Lookup([]adm.Value{adm.String("t1")}); !ok {
		t.Fatal("promoted replica lost its record")
	}
	if _, err := mA.OpenPartition(&Dataset{Dataverse: "x", Name: "y", Type: ds.Type, PrimaryKey: []string{"id"}, NodeGroup: []string{"Z"}}); err == nil {
		t.Fatal("OpenPartition for foreign nodegroup succeeded")
	}
}

func TestOpenPartitionIdxRange(t *testing.T) {
	ds := testDataset("A")
	m := NewManager("A", t.TempDir(), lsm.Options{})
	defer m.Close()
	if _, err := m.OpenPartitionIdx(ds, 5, false); err == nil {
		t.Fatal("out-of-range partition index accepted")
	}
	if _, err := m.OpenPartitionIdx(ds, -1, false); err == nil {
		t.Fatal("negative partition index accepted")
	}
}

func TestCompositePrimaryKey(t *testing.T) {
	rt := adm.MustRecordType("Event", true, []adm.Field{
		{Name: "stream", Type: adm.TString},
		{Name: "seq", Type: adm.TInt64},
		{Name: "payload", Type: adm.TString},
	})
	ds := &Dataset{
		Dataverse: "feeds", Name: "Events", Type: rt,
		PrimaryKey: []string{"stream", "seq"}, NodeGroup: []string{"A"},
	}
	m := NewManager("A", t.TempDir(), lsm.Options{})
	defer m.Close()
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(stream string, seq int64) *adm.Record {
		return adm.MustRecord([]string{"stream", "seq", "payload"},
			[]adm.Value{adm.String(stream), adm.Int64(seq), adm.String("x")})
	}
	// Same stream, different seq: distinct records.
	insertRecs(t, p, mk("s1", 1))
	insertRecs(t, p, mk("s1", 2))
	insertRecs(t, p, mk("s2", 1))
	n, _ := p.Count()
	if n != 3 {
		t.Fatalf("composite-key count = %d, want 3", n)
	}
	// Same composite key: upsert.
	insertRecs(t, p, mk("s1", 1))
	n, _ = p.Count()
	if n != 3 {
		t.Fatalf("composite-key upsert count = %d, want 3", n)
	}
	got, ok, err := p.Lookup([]adm.Value{adm.String("s1"), adm.Int64(2)})
	if err != nil || !ok {
		t.Fatalf("composite Lookup = %v, %v", ok, err)
	}
	if s, _ := got.Field("seq"); s.(adm.Int64) != 2 {
		t.Fatalf("Lookup returned %s", got)
	}
}

// TestOpenPartitionsReopensEveryRef: a node's partitions of two datasets,
// one of them replicated (node A holds its partition 0 and the replica of
// partition 1), are written, the manager closes, and a new manager reopens
// them on two workers. Each partition comes back from its own directory
// with its records; a bad ref is reported while the others still open.
func TestOpenPartitionsReopensEveryRef(t *testing.T) {
	dir := t.TempDir()
	plain := testDataset("A", "B")
	plain.Name = "Plain"
	replicated := testDataset("A", "B")
	replicated.Name = "Replicated"
	replicated.Replicated = true
	refs := []PartitionRef{
		{Dataset: plain, Idx: 0},
		{Dataset: replicated, Idx: 0},
		{Dataset: replicated, Idx: 1, Replica: true},
	}
	want := []int{3, 4, 5}

	m := NewManager("A", dir, lsm.Options{})
	for i, ref := range refs {
		p, err := m.OpenPartitionIdx(ref.Dataset, ref.Idx, ref.Replica)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.InsertFrame(frameOf(100*i, want[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re := NewManager("A", dir, lsm.Options{})
	defer re.Close()
	bad := PartitionRef{Dataset: plain, Idx: 7}
	err := re.OpenPartitions(append([]PartitionRef{bad}, refs...), 2)
	if err == nil || !strings.Contains(err.Error(), "partition 7") {
		t.Fatalf("OpenPartitions with a bad ref = %v, want its error", err)
	}
	for i, ref := range refs {
		p := re.PartitionIdx(ref.Dataset.QualifiedName(), ref.Idx)
		if p == nil {
			t.Fatalf("%s partition %d (replica %v) was not reopened", ref.Dataset.Name, ref.Idx, ref.Replica)
		}
		if n, err := p.Count(); err != nil || n != want[i] {
			t.Fatalf("%s partition %d (replica %v) holds %d records (%v), want %d", ref.Dataset.Name, ref.Idx, ref.Replica, n, err, want[i])
		}
	}
}
