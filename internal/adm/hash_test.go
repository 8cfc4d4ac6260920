package adm

import (
	"math"
	"testing"
)

// hashGolden pins Hash for one value of every tag. Every stored record sits
// on the partition its primary key hashed to, so a changed value here moves
// data already on disk: a change to this table is a data-format change, not
// a test update.
var hashGolden = []struct {
	name string
	v    Value
	want uint64
}{
	{"missing", Missing{}, 0xaf63bd4c8601b7df},
	{"null", Null{}, 0xaf63bc4c8601b62c},
	{"true", Boolean(true), 0x8395307b4f1348c},
	{"false", Boolean(false), 0x8395407b4f1363f},
	{"int64 1", Int64(1), 0xb4acfbc1cba1f0fc},
	{"double 1", Double(1), 0xb4acfbc1cba1f0fc},
	{"int64 -42", Int64(-42), 0xb2cda4c1ca0a8dbc},
	{"double -0", Double(math.Copysign(0, -1)), 0xb39d32c1cabb1b41},
	{"double 3.25", Double(3.25), 0xb3890ec1caaa350b},
	{"string empty", String(""), 0xaf63b84c8601af60},
	{"string id", String("s1-p0-0000000001"), 0x9b093f113e41c291},
	{"datetime", Datetime(1420070400000), 0x8ad950526b1fdad8},
	{"point", Point{X: -122.4, Y: 37.8}, 0x268604c371891e0f},
	{"rectangle", Rectangle{Low: Point{X: 0, Y: 0}, High: Point{X: 10, Y: 10}}, 0xaa56495810202ad5},
	{"ordered list", &OrderedList{Items: []Value{Int64(1), String("a"), Null{}}}, 0x8b6a25dfdddc5824},
	{"unordered list", &UnorderedList{Items: []Value{String("b"), String("a")}}, 0x8bed3e5a3728e418},
	{"record", MustRecord([]string{"b", "a"}, []Value{Int64(2), String("x")}), 0x3b26341c47e88926},
}

func TestHashGolden(t *testing.T) {
	for _, c := range hashGolden {
		if got := Hash(c.v); got != c.want {
			t.Errorf("Hash(%s %v) = %#x, want %#x: placement of stored data would move", c.name, c.v, got, c.want)
		}
		got, err := HashEncoded(Encode(c.v))
		if err != nil || got != c.want {
			t.Errorf("HashEncoded(%s %v) = %#x, %v, want %#x", c.name, c.v, got, err, c.want)
		}
	}
}

// TestHashDoesNotAllocate: PartitionOf and the hash connector run Hash or
// HashEncoded once per record per hop.
func TestHashDoesNotAllocate(t *testing.T) {
	key := String("s11-p0-0000004242")
	enc := Encode(key)
	if n := testing.AllocsPerRun(100, func() { Hash(key) }); n != 0 {
		t.Errorf("Hash(string) allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { HashEncoded(enc) }); n != 0 {
		t.Errorf("HashEncoded(string) allocates %v times, want 0", n)
	}
}

// FuzzHashEncoded: on arbitrary bytes HashEncoded is Hash(DecodeOne(buf)) —
// the same hash, or the same error.
func FuzzHashEncoded(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	for _, c := range hashGolden {
		f.Add(Encode(c.v))
	}
	f.Add(dupInUndeclared)
	f.Add(Encode(&OrderedList{Items: []Value{MustRecord([]string{"k"}, []Value{Int64(1)}), Double(math.NaN())}}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, err := HashEncoded(buf)
		v, derr := DecodeOne(buf)
		if derr != nil {
			if err == nil || err.Error() != derr.Error() {
				t.Fatalf("HashEncoded(%x) = %#x, %v; DecodeOne fails with %v", buf, got, err, derr)
			}
			return
		}
		if err != nil || got != Hash(v) {
			t.Fatalf("HashEncoded(%x) = %#x, %v; Hash(DecodeOne) = %#x", buf, got, err, Hash(v))
		}
	})
}
