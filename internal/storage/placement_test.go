package storage

import (
	"testing"

	"asterixfeeds/internal/adm"
)

// placementDatasets are a single-field and a composite primary key over
// three partitions.
func placementDatasets() (single, composite *Dataset) {
	nodes := []string{"A", "B", "C"}
	single = &Dataset{Dataverse: "d", Name: "single", PrimaryKey: []string{"id"}, NodeGroup: nodes}
	composite = &Dataset{Dataverse: "d", Name: "composite", PrimaryKey: []string{"user", "seq"}, NodeGroup: nodes}
	return single, composite
}

// TestPlacementGolden pins where keys land. Every restart test runs one
// partition, so nothing else notices if placement moves — but every record
// already stored on a multi-partition dataset would then sit where lookups
// and upserts no longer look.
func TestPlacementGolden(t *testing.T) {
	single, composite := placementDatasets()
	cases := []struct {
		ds   *Dataset
		rec  *adm.Record
		hash uint64
		part int
	}{
		{single, (&adm.RecordBuilder{}).Add("id", adm.String("s11-p0-0000000000")).MustBuild(), 0x301556566e41d12c, 0},
		{single, (&adm.RecordBuilder{}).Add("id", adm.String("s11-p0-0000000001")).MustBuild(), 0x301557566e41d29b, 2},
		{single, (&adm.RecordBuilder{}).Add("id", adm.String("s11-p1-0000004242")).MustBuild(), 0xcfd2c55e4a5b59a9, 0},
		{single, (&adm.RecordBuilder{}).Add("id", adm.String("pre-0000099999")).MustBuild(), 0x1e398a4f63a60922, 0},
		{composite, (&adm.RecordBuilder{}).Add("seq", adm.Int64(7)).Add("user", adm.String("maria")).MustBuild(), 0x39185b604b5756d8, 0},
	}
	for _, c := range cases {
		h, err := c.ds.primaryKeyHash(c.rec)
		p, perr := c.ds.PartitionOf(c.rec)
		if err != nil || perr != nil || h != c.hash || p != c.part {
			t.Errorf("%s: key hash %#x (%v), partition %d (%v); want %#x, %d", c.rec, h, err, p, perr, c.hash, c.part)
		}
		if got := c.ds.KeyHashFunc()(adm.Encode(c.rec)); got != c.hash {
			t.Errorf("%s: KeyHashFunc %#x, want %#x", c.rec, got, c.hash)
		}
	}
}

// TestKeyHashFuncDoesNotAllocate: the hash connector calls it once per
// record per hop.
func TestKeyHashFuncDoesNotAllocate(t *testing.T) {
	single, composite := placementDatasets()
	rec := adm.Encode(tweetRec("s11-p0-0000004242", "u", &adm.Point{X: 1, Y: 2}))
	comp := adm.Encode((&adm.RecordBuilder{}).Add("seq", adm.Int64(7)).Add("text", adm.String("t")).Add("user", adm.String("maria")).MustBuild())
	for name, c := range map[string]struct {
		ds  *Dataset
		rec []byte
	}{"single": {single, rec}, "composite": {composite, comp}} {
		hash := c.ds.KeyHashFunc()
		if n := testing.AllocsPerRun(100, func() { hash(c.rec) }); n != 0 {
			t.Errorf("%s: KeyHashFunc allocates %v times per record, want 0", name, n)
		}
	}
}

// FuzzKeyHashFunc: for bytes that decode to a record, KeyHashFunc is the
// hash PartitionOf takes the partition from — 0 when the key is absent — so
// a record routed by the connector lands where PartitionOf put its earlier
// versions. Bytes Decode refuses must not panic it (the store refuses them
// wherever they land).
func FuzzKeyHashFunc(f *testing.F) {
	rec := func(names []string, vals ...adm.Value) []byte { return adm.Encode(adm.MustRecord(names, vals)) }
	for _, s := range [][]byte{
		rec([]string{"id", "text"}, adm.String("s11-p0-0000000001"), adm.String("x")),
		rec([]string{"text", "id"}, adm.String("x"), adm.Int64(42)),
		rec([]string{"id"}, adm.Double(42)),
		rec([]string{"id"}, adm.Datetime(1420070400000)),
		rec([]string{"id"}, adm.Null{}),
		rec([]string{"id"}, adm.Missing{}),
		rec([]string{"id"}, adm.MustRecord([]string{"b", "a"}, []adm.Value{adm.Int64(1), adm.Int64(2)})),
		rec([]string{"user", "seq"}, adm.String("maria"), adm.Int64(7)),
		rec([]string{"seq", "x", "user"}, adm.Double(7), adm.Point{X: 1, Y: 2}, adm.String("maria")),
		rec([]string{"user"}, adm.String("maria")),
		rec([]string{"text"}, adm.String("no key")),
		rec(nil),
		adm.Encode(adm.String("not a record")),
		rec([]string{"id", "text"}, adm.String("s1"), adm.String("x"))[:9],
		{byte(adm.TagRecord), 2, 2, 'i', 'd', byte(adm.TagInt64), 2, 2, 'i', 'd', byte(adm.TagInt64), 4},
		{byte(adm.TagRecord), 1, 2, 'i', 'd', byte(adm.TagBoolean), 7},
		{byte(adm.TagRecord), 1, 2, 'i', 'd', byte(adm.TagRecord), 2, 1, 'q', byte(adm.TagNull), 1, 'q', byte(adm.TagNull)},
	} {
		f.Add(s)
	}
	single, composite := placementDatasets()
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, ds := range []*Dataset{single, composite} {
			got := ds.KeyHashFunc()(buf)
			v, _, err := adm.Decode(buf)
			if err != nil {
				continue
			}
			r, ok := v.(*adm.Record)
			if !ok {
				if got != 0 {
					t.Fatalf("%s: KeyHashFunc(%x) = %#x for a %s, want 0", ds.Name, buf, got, v.Tag())
				}
				continue
			}
			want, err := ds.primaryKeyHash(r)
			if err != nil {
				want = 0
			}
			if got != want {
				t.Fatalf("%s: KeyHashFunc(%x) = %#x, PartitionOf hashes %s to %#x", ds.Name, buf, got, r, want)
			}
			if p, err := ds.PartitionOf(r); err == nil && p != int(got%3) {
				t.Fatalf("%s: KeyHashFunc routes %s to %d, PartitionOf to %d", ds.Name, r, got%3, p)
			}
		}
	})
}
