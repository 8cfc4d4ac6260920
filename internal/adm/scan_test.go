package adm

import (
	"testing"
)

func scanTestType(t *testing.T, open bool) *RecordType {
	t.Helper()
	return MustRecordType("Tweet", open, []Field{
		{Name: "id", Type: TString},
		{Name: "score", Type: TDouble},
		{Name: "location", Type: TPoint, Optional: true},
		{Name: "tags", Type: &OrderedListType{Item: TString}, Optional: true},
	})
}

func scanTestRecord(t *testing.T) *Record {
	t.Helper()
	return (&RecordBuilder{}).
		Add("id", String("t1")).
		Add("score", Int64(7)). // int64→double promotion
		Add("location", Point{X: 1, Y: 2}).
		Add("tags", &OrderedList{Items: []Value{String("a"), String("b")}}).
		Add("extra", Boolean(true)).
		MustBuild()
}

func TestSkipValueMatchesDecode(t *testing.T) {
	values := []Value{
		Missing{}, Null{}, Boolean(true), Int64(-42), Double(3.5),
		String("hello"), Datetime(123456), Point{X: 1, Y: 2},
		Rectangle{Low: Point{0, 0}, High: Point{4, 4}},
		&OrderedList{Items: []Value{Int64(1), String("x")}},
		&UnorderedList{Items: []Value{Double(2.5)}},
		scanTestRecord(t),
	}
	for _, v := range values {
		enc := Encode(v)
		// Append trailing garbage: SkipValue must report the exact length.
		buf := append(append([]byte(nil), enc...), 0xFF, 0xFF)
		n, err := SkipValue(buf)
		if err != nil {
			t.Fatalf("SkipValue(%s): %v", v.Tag(), err)
		}
		if n != len(enc) {
			t.Fatalf("SkipValue(%s) = %d, want %d", v.Tag(), n, len(enc))
		}
		// Every truncation must be detected, never over-read.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := SkipValue(enc[:cut]); err == nil && cut < len(enc) {
				if m, _ := SkipValue(enc[:cut]); m > cut {
					t.Fatalf("SkipValue(%s) over-read truncated buffer", v.Tag())
				}
			}
		}
	}
}

func TestScanRecordFields(t *testing.T) {
	rec := scanTestRecord(t)
	enc := Encode(rec)
	var names []string
	n, err := ScanRecordFields(enc, func(name, encValue []byte) bool {
		names = append(names, string(name))
		// Each field's encoded slice must round-trip through Decode.
		v, used, err := Decode(encValue)
		if err != nil {
			t.Fatalf("field %q: %v", name, err)
		}
		if used != len(encValue) {
			t.Fatalf("field %q: %d trailing bytes", name, len(encValue)-used)
		}
		want, _ := rec.Field(string(name))
		if !Equal(v, want) {
			t.Fatalf("field %q decoded to %s, want %s", name, v, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d bytes, want %d", n, len(enc))
	}
	want := []string{"id", "score", "location", "tags", "extra"}
	if len(names) != len(want) {
		t.Fatalf("got fields %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got fields %v, want %v", names, want)
		}
	}
}

func TestScanRecordFieldsEarlyStop(t *testing.T) {
	enc := Encode(scanTestRecord(t))
	calls := 0
	if _, err := ScanRecordFields(enc, func(_, _ []byte) bool {
		calls++
		return calls < 2
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2", calls)
	}
}

// TestValidateEncodedMatchesValidate cross-checks the byte-level validator
// against DecodeOne+Validate over conforming and violating records.
func TestValidateEncodedMatchesValidate(t *testing.T) {
	mk := func(build func(b *RecordBuilder)) []byte {
		b := &RecordBuilder{}
		build(b)
		return Encode(b.MustBuild())
	}
	cases := []struct {
		name string
		enc  []byte
	}{
		{"conforming", Encode(scanTestRecord(t))},
		{"missing required", mk(func(b *RecordBuilder) { b.Add("id", String("x")) })},
		{"null required", mk(func(b *RecordBuilder) { b.Add("id", Null{}).Add("score", Double(1)) })},
		{"wrong field type", mk(func(b *RecordBuilder) { b.Add("id", Int64(9)).Add("score", Double(1)) })},
		{"optional absent", mk(func(b *RecordBuilder) { b.Add("id", String("x")).Add("score", Double(1)) })},
		{"optional null", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).Add("location", Null{})
		})},
		{"bad nested list item", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).
				Add("tags", &OrderedList{Items: []Value{Int64(3)}})
		})},
		{"undeclared field", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).Add("zzz", Boolean(false))
		})},
		{"not a record", Encode(String("just a string"))},
	}
	for _, open := range []bool{true, false} {
		rt := scanTestType(t, open)
		for _, tc := range cases {
			wantErr := func() error {
				v, err := DecodeOne(tc.enc)
				if err != nil {
					return err
				}
				return rt.Validate(v)
			}()
			gotErr := rt.ValidateEncoded(tc.enc)
			if (wantErr == nil) != (gotErr == nil) {
				t.Errorf("open=%v %s: ValidateEncoded err=%v, Validate err=%v", open, tc.name, gotErr, wantErr)
			}
		}
		// Trailing bytes are rejected, as DecodeOne rejects them.
		enc := append(Encode(scanTestRecord(t)), 0x00)
		if rt.ValidateEncoded(enc) == nil {
			t.Errorf("open=%v: trailing bytes accepted", open)
		}
		// Truncated records are rejected.
		enc = Encode(scanTestRecord(t))
		if rt.ValidateEncoded(enc[:len(enc)-3]) == nil {
			t.Errorf("open=%v: truncated record accepted", open)
		}
	}
}

func TestValidateEncodedDuplicateField(t *testing.T) {
	// Hand-craft a record encoding with a duplicate field name, which the
	// builder would reject: record{ id:"a", id:"b" }.
	var buf []byte
	buf = append(buf, byte(TagRecord), 2)
	for _, v := range []string{"a", "b"} {
		buf = append(buf, 2)
		buf = append(buf, "id"...)
		buf = AppendValue(buf, String(v))
	}
	rt := scanTestType(t, true)
	if err := rt.ValidateEncoded(buf); err == nil {
		t.Fatal("duplicate field accepted")
	}
	if _, err := DecodeOne(buf); err == nil {
		t.Fatal("decode path accepted duplicate field (parity lost)")
	}
}

// dupInUndeclared is {"id":"a","z":{"q":null,"q":null}} encoded by hand (the
// builder refuses a repeated name): the repeat sits inside the value of a
// field the type does not declare.
var dupInUndeclared = []byte{
	byte(TagRecord), 2,
	2, 'i', 'd', byte(TagString), 1, 'a',
	1, 'z', byte(TagRecord), 2, 1, 'q', byte(TagNull), 1, 'q', byte(TagNull),
}

// TestValidateEncodedDuplicateAtDepth: a repeated field name is refused
// wherever it sits, as DecodeOne refuses it — a record ValidateEncoded let
// through would be stored and then fail every read.
func TestValidateEncodedDuplicateAtDepth(t *testing.T) {
	dupRec := dupInUndeclared[10:] // the {"q":null,"q":null} of the case above
	field := func(name string, encValue []byte) []byte {
		buf := []byte{byte(TagRecord), 2, 2, 'i', 'd', byte(TagString), 1, 'a', byte(len(name))}
		return append(append(buf, name...), encValue...)
	}
	list := func(tag TypeTag, items ...[]byte) []byte {
		buf := []byte{byte(tag), byte(len(items))}
		for _, it := range items {
			buf = append(buf, it...)
		}
		return buf
	}
	rt := MustRecordType("T", true, []Field{
		{Name: "id", Type: TString},
		{Name: "nested", Type: MustRecordType("N", true, nil), Optional: true},
		{Name: "recs", Type: &UnorderedListType{Item: MustRecordType("N", true, nil)}, Optional: true},
	})
	cases := map[string][]byte{
		"undeclared record":             dupInUndeclared,
		"undeclared list of records":    field("z", list(TagOrderedList, Encode(Int64(1)), dupRec)),
		"undeclared, two levels down":   field("z", field("y", dupRec)),
		"declared open record":          field("nested", dupRec),
		"undeclared in declared record": field("nested", field("y", dupRec)),
		"declared bag of records":       field("recs", list(TagUnorderedList, dupRec)),
	}
	for name, enc := range cases {
		if n, err := SkipValue(enc); err != nil || n != len(enc) {
			t.Fatalf("%s: the hand-built case is not well-formed: %d of %d, %v", name, n, len(enc), err)
		}
		_, derr := DecodeOne(enc)
		if derr == nil {
			t.Fatalf("%s: DecodeOne accepted a repeated name", name)
		}
		if err := rt.ValidateEncoded(enc); err == nil {
			t.Errorf("%s: ValidateEncoded accepted what DecodeOne rejects (%v)", name, derr)
		}
	}
}

// benchTweetType is the Tweet type of the benchmark's DDL (bench/spec.go).
func benchTweetType() *RecordType {
	user := MustRecordType("TwitterUser", true, []Field{
		{Name: "screen_name", Type: TString},
		{Name: "lang", Type: TString},
		{Name: "friends_count", Type: TInt64},
		{Name: "statuses_count", Type: TInt64},
		{Name: "name", Type: TString},
		{Name: "followers_count", Type: TInt64},
	})
	return MustRecordType("Tweet", true, []Field{
		{Name: "id", Type: TString},
		{Name: "user", Type: user},
		{Name: "latitude", Type: TDouble, Optional: true},
		{Name: "longitude", Type: TDouble, Optional: true},
		{Name: "created_at", Type: TString},
		{Name: "message_text", Type: TString},
		{Name: "country", Type: TString, Optional: true},
	})
}

func TestValidateEncodedAllocs(t *testing.T) {
	tweet, err := Transcode(nil, []byte(tweetLine))
	if err != nil {
		t.Fatal(err)
	}
	withTags := Encode(scanTestRecord(t)) // a declared list and an undeclared field
	for _, tc := range []struct {
		rt  *RecordType
		enc []byte
	}{{benchTweetType(), tweet}, {scanTestType(t, true), withTags}} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.rt.ValidateEncoded(tc.enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("ValidateEncoded on %s allocates %.1f times per run, want 0", tc.rt.Name(), allocs)
		}
	}
}

func BenchmarkValidateEncoded(b *testing.B) {
	rt := benchTweetType()
	enc, err := Transcode(nil, []byte(tweetLine))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("byte-level", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rt.ValidateEncoded(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := DecodeOne(enc)
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.Validate(v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
