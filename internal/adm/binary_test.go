package adm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, v Value) {
	t.Helper()
	buf := Encode(v)
	got, err := DecodeOne(buf)
	if err != nil {
		t.Fatalf("DecodeOne(%s): %v", v, err)
	}
	if !Equal(got, v) || got.Tag() != v.Tag() {
		t.Fatalf("round trip of %s produced %s", v, got)
	}
}

func TestBinaryRoundTripPrimitives(t *testing.T) {
	for _, v := range []Value{
		Missing{}, Null{}, Boolean(true), Boolean(false),
		Int64(0), Int64(-1), Int64(math.MaxInt64), Int64(math.MinInt64),
		Double(0), Double(-2.5), Double(math.Inf(1)), Double(1e300),
		String(""), String("hello, 世界"), String("with\x00nul"),
		Datetime(0), Datetime(1430000000000),
		Point{33.13, -124.27}, Rectangle{Point{0, 0}, Point{1, 1}},
	} {
		roundTrip(t, v)
	}
}

func TestBinaryRoundTripComposites(t *testing.T) {
	rec := MustRecord(
		[]string{"id", "topics", "loc", "nested"},
		[]Value{
			String("t1"),
			&OrderedList{Items: []Value{String("#a"), String("#b")}},
			Point{1, 2},
			MustRecord([]string{"bag"}, []Value{&UnorderedList{Items: []Value{Int64(1), Int64(2)}}}),
		})
	roundTrip(t, rec)
	roundTrip(t, &OrderedList{})
	roundTrip(t, &UnorderedList{})
	roundTrip(t, MustRecord(nil, nil))
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := Encode(sampleTweet())
	for i := 0; i < len(full)-1; i++ {
		if _, err := DecodeOne(full[:i]); err == nil {
			t.Fatalf("DecodeOne of %d/%d-byte prefix succeeded", i, len(full))
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	buf := append(Encode(Int64(1)), 0x00)
	if _, err := DecodeOne(buf); err == nil {
		t.Fatal("DecodeOne accepted trailing bytes")
	}
}

func TestDecodeRejectsUnknownTag(t *testing.T) {
	if _, err := DecodeOne([]byte{0xEE}); err == nil {
		t.Fatal("DecodeOne accepted unknown tag")
	}
}

// randomValue generates an arbitrary ADM value of bounded depth for property
// tests.
func randomValue(r *rand.Rand, depth int) Value {
	max := 11
	if depth <= 0 {
		max = 8 // scalars only
	}
	switch r.Intn(max) {
	case 0:
		return Null{}
	case 1:
		return Boolean(r.Intn(2) == 0)
	case 2:
		return Int64(r.Int63() - r.Int63())
	case 3:
		return Double(r.NormFloat64() * 1e6)
	case 4:
		b := make([]byte, r.Intn(20))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return String(b)
	case 5:
		return Point{r.Float64()*360 - 180, r.Float64()*180 - 90}
	case 6:
		return Datetime(r.Int63n(4102444800000)) // through year 2100
	case 7:
		lo := Point{r.Float64()*100 - 50, r.Float64()*100 - 50}
		return Rectangle{Low: lo, High: Point{lo.X + r.Float64()*10, lo.Y + r.Float64()*10}}
	case 8:
		n := r.Intn(4)
		items := make([]Value, n)
		for i := range items {
			items[i] = randomValue(r, depth-1)
		}
		return &OrderedList{Items: items}
	case 9:
		n := r.Intn(4)
		items := make([]Value, n)
		for i := range items {
			items[i] = randomValue(r, depth-1)
		}
		return &UnorderedList{Items: items}
	default:
		n := r.Intn(4)
		var b RecordBuilder
		for i := 0; i < n; i++ {
			b.Add(string(rune('a'+i)), randomValue(r, depth-1))
		}
		return b.MustBuild()
	}
}

func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		buf := Encode(v)
		got, err := DecodeOne(buf)
		if err != nil {
			t.Logf("decode error for %s: %v", v, err)
			return false
		}
		return Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodeDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		a, b := Encode(v), Encode(v)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendValueExtends(t *testing.T) {
	buf := []byte{0xAA}
	buf = AppendValue(buf, Int64(5))
	if buf[0] != 0xAA {
		t.Fatal("AppendValue overwrote prefix")
	}
	v, n, err := Decode(buf[1:])
	if err != nil || n != len(buf)-1 || v.(Int64) != 5 {
		t.Fatalf("Decode after append: %v %d %v", v, n, err)
	}
}

func BenchmarkEncodeTweet(b *testing.B) {
	tw := sampleTweet()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendValue(buf[:0], tw)
	}
}

func BenchmarkDecodeTweet(b *testing.B) {
	buf := Encode(sampleTweet())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodedSiblingsDoNotAlias: a decoded value's records, fields and list
// items are cut from shared slabs, each to its own length, so extending one
// record or list — through WithField, through a RecordBuilder fed its
// FieldAt, or by appending to a list's Items — never writes into a sibling
// of the same value.
func TestDecodedSiblingsDoNotAlias(t *testing.T) {
	const text = `[{"a":1,"l":[1,2]},{"a":2,"l":[3]},{"b":{"c":"x","d":[true]}},[4,5],{{6}}]`
	enc, err := Transcode(nil, []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeOne(enc)
	if err != nil {
		t.Fatal(err)
	}
	items := v.(*OrderedList).Items
	var extended []Value
	for _, it := range items {
		switch x := it.(type) {
		case *Record:
			extended = append(extended, x.WithField("z", Int64(9)), x.WithField("a", Null{}))
			var b RecordBuilder
			for i := 0; i < x.NumFields(); i++ {
				b.Add(x.FieldAt(i))
			}
			extended = append(extended, b.Add("z", String("zz")).MustBuild())
			for i := 0; i < x.NumFields(); i++ {
				if _, fv := x.FieldAt(i); fv.Tag() == TagOrderedList {
					l := fv.(*OrderedList)
					extended = append(extended, &OrderedList{Items: append(l.Items, Int64(7), Int64(8))})
				}
			}
		case *OrderedList:
			extended = append(extended, &OrderedList{Items: append(x.Items, Int64(7))})
		case *UnorderedList:
			extended = append(extended, &UnorderedList{Items: append(x.Items, Int64(7))})
		}
	}
	extended = append(extended, &OrderedList{Items: append(items, Int64(7))})
	if got := Encode(v); !bytes.Equal(got, enc) {
		t.Fatalf("extending the parts of a decoded value changed it:\n got %v\nwant %s", v, text)
	}
	if len(extended) != 14 {
		t.Fatalf("extended %d parts, want 14", len(extended))
	}
}

func TestDecodeRejectsAbsurdCounts(t *testing.T) {
	// A tiny buffer claiming a huge element count must fail cleanly (and
	// quickly) instead of attempting a giant allocation.
	for _, tag := range []TypeTag{TagOrderedList, TagUnorderedList, TagRecord} {
		buf := []byte{byte(tag), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
		if _, err := DecodeOne(buf); err == nil {
			t.Errorf("tag %s: absurd count accepted", tag)
		}
	}
}

// TestRecordIndexBoundary: records of up to maxUnindexedFields fields find
// fields and refuse repeated names by scanning, wider ones through a map.
// Both must agree — on Field, on the first repeat NewRecord reports, and with
// the decoder and the transcoder — on either side of the boundary, at the
// top level and nested.
func TestRecordIndexBoundary(t *testing.T) {
	for n := maxUnindexedFields - 1; n <= maxUnindexedFields+2; n++ {
		names := make([]string, n)
		values := make([]Value, n)
		for i := range names {
			names[i] = fmt.Sprintf("f%d", i)
			values[i] = Int64(i)
		}
		rec := MustRecord(names, values)
		if (rec.index == nil) != (n <= maxUnindexedFields) {
			t.Fatalf("%d fields: index map present = %v", n, rec.index != nil)
		}
		for _, v := range []Value{rec, MustRecord([]string{"outer"}, []Value{rec})} {
			got, err := DecodeOne(Encode(v))
			if err != nil || !Equal(got, v) {
				t.Fatalf("%d fields: round trip = %v, %v", n, got, err)
			}
			r := got.(*Record)
			if outer, ok := r.Field("outer"); ok {
				r = outer.(*Record)
			}
			for i, name := range names {
				if fv, ok := r.Field(name); !ok || fv != Int64(i) {
					t.Fatalf("%d fields: Field(%q) = %v, %v", n, name, fv, ok)
				}
			}
			if _, ok := r.Field("absent"); ok {
				t.Fatalf("%d fields: Field of an absent name reported present", n)
			}
		}

		// Repeat the second name last, then the first name too: the first
		// repeat in field order is the one reported, by every reader.
		dupNames := append(append([]string(nil), names...), "f1", "f0")
		dupValues := append(append([]Value(nil), values...), Null{}, Null{})
		want := `adm: duplicate field "f1" in record`
		if _, err := NewRecord(dupNames, dupValues); err == nil || err.Error() != want {
			t.Fatalf("%d fields: NewRecord = %v, want %s", n, err, want)
		}
		enc := []byte{byte(TagRecord), byte(len(dupNames))}
		text := "{"
		for i, name := range dupNames {
			enc = append(append(append(enc, byte(len(name))), name...), Encode(dupValues[i])...)
			if i > 0 {
				text += ","
			}
			text += fmt.Sprintf("%q:%v", name, dupValues[i])
		}
		text += "}"
		nested := append([]byte{byte(TagRecord), 1, 5}, "outer"...)
		nested = append(nested, enc...)
		for _, b := range [][]byte{enc, nested} {
			if _, err := DecodeOne(b); err == nil || err.Error() != want {
				t.Fatalf("%d fields: DecodeOne = %v, want %s", n, err, want)
			}
		}
		for _, line := range []string{text, `{"outer":` + text + `}`} {
			if _, err := Transcode(nil, []byte(line)); err == nil || err.Error() != want {
				t.Fatalf("%d fields: Transcode(%s) = %v, want %s", n, line, err, want)
			}
		}
	}
}
