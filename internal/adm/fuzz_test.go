package adm

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// fuzzSeeds returns encoded values covering every type tag plus nesting, used
// to seed both fuzz targets. The checked-in corpus under testdata/fuzz/
// extends these with hand-mangled encodings (truncations, bad varints,
// unknown tags, oversized counts).
func fuzzSeeds() [][]byte {
	vals := []Value{
		Missing{},
		Null{},
		Boolean(true),
		Int64(-42),
		Int64(1 << 40),
		Double(3.14),
		String(""),
		String("tweet"),
		Datetime(1420070400000),
		Point{X: 1, Y: -2},
		Rectangle{Low: Point{X: 0, Y: 0}, High: Point{X: 10, Y: 10}},
		&OrderedList{Items: []Value{Int64(1), String("a"), Null{}}},
		&UnorderedList{Items: []Value{Boolean(false)}},
		MustRecord(nil, nil),
		MustRecord(
			[]string{"id", "country", "pos", "tags"},
			[]Value{
				String("s1-p0-0000000001"),
				String("US"),
				Point{X: -122.4, Y: 37.8},
				&OrderedList{Items: []Value{String("a"), String("b")}},
			},
		),
		MustRecord(
			[]string{"outer"},
			[]Value{MustRecord([]string{"inner"}, []Value{Int64(7)})},
		),
	}
	seeds := make([][]byte, 0, len(vals))
	for _, v := range vals {
		seeds = append(seeds, Encode(v))
	}
	return seeds
}

// FuzzSkipValue: on arbitrary bytes SkipValue must never panic or over-read,
// and its verdict is Decode's: the same length when both accept, the same
// error text when both refuse. Every value it accepts is in the one form
// AppendValue writes, so re-encoding the decoded value gives back exactly
// the bytes it accepted. The store and every reader of encoded values take
// SkipValue's verdict, so any divergence here is an ingestion-correctness
// bug, not just a crash.
func FuzzSkipValue(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		n, err := SkipValue(buf)
		v, dn, derr := Decode(buf)
		if (err == nil) != (derr == nil) || (err != nil && err.Error() != derr.Error()) {
			t.Fatalf("SkipValue(%x) = %d, %v; Decode = %d, %v", buf, n, err, dn, derr)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(buf) || n != dn {
			t.Fatalf("SkipValue consumed %d of %d bytes, Decode %d", n, len(buf), dn)
		}
		// Skipping the exact value (no trailing bytes) must be stable.
		if m, err := SkipValue(buf[:n]); err != nil || m != n {
			t.Fatalf("re-skip of exact value: %d, %v (want %d, nil)", m, err, n)
		}
		if enc := Encode(v); !bytes.Equal(enc, buf[:n]) {
			t.Fatalf("SkipValue accepted %x, which decodes to %v and re-encodes to %x", buf[:n], v, enc)
		}
	})
}

// FuzzScanRecordFields: the field walk must never panic, must hand out only
// in-bounds sub-slices whose encValue is itself well-formed, and on success
// must consume exactly what SkipValue would.
func FuzzScanRecordFields(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		fields := 0
		n, err := ScanRecordFields(buf, func(name, encValue []byte) bool {
			fields++
			if m, err := SkipValue(encValue); err != nil || m != len(encValue) {
				t.Fatalf("field %q: handed malformed encValue (%d of %d bytes, %v)",
					name, m, len(encValue), err)
			}
			return true
		})
		if err != nil {
			return
		}
		if n <= 0 || n > len(buf) {
			t.Fatalf("ScanRecordFields consumed %d of %d bytes", n, len(buf))
		}
		sn, serr := SkipValue(buf)
		if serr != nil || sn != n {
			t.Fatalf("full walk consumed %d bytes but SkipValue says %d, %v", n, sn, serr)
		}
		// Early termination must stop after the first field without error.
		if fields > 1 {
			stopped := 0
			pn, err := ScanRecordFields(buf, func(name, encValue []byte) bool {
				stopped++
				return false
			})
			if err != nil || stopped != 1 || pn <= 0 || pn > n {
				t.Fatalf("early stop: visited %d fields, consumed %d, %v", stopped, pn, err)
			}
		}
	})
}

// fuzzValidateType has one of everything ValidateEncoded walks on the bytes:
// a nested open record, a nested closed record, a list of primitives, a bag
// of records, and optional fields, in an open top level.
func fuzzValidateType() *RecordType {
	open := MustRecordType("Open", true, []Field{
		{Name: "name", Type: TString},
		{Name: "n", Type: TDouble, Optional: true},
	})
	closed := MustRecordType("Closed", false, []Field{
		{Name: "x", Type: TInt64},
		{Name: "y", Type: TInt64, Optional: true},
	})
	return MustRecordType("T", true, []Field{
		{Name: "id", Type: TString},
		{Name: "user", Type: open},
		{Name: "pos", Type: closed, Optional: true},
		{Name: "tags", Type: &OrderedListType{Item: TString}, Optional: true},
		{Name: "refs", Type: &UnorderedListType{Item: closed}, Optional: true},
	})
}

// fuzzClosedType is a closed top level declaring more fields than the
// walk's stack marks hold, most of them optional.
func fuzzClosedType() *RecordType {
	fields := []Field{{Name: "id", Type: TString}, {Name: "user", Type: fuzzValidateType().fields[1].Type}}
	for i := 0; i < 16; i++ {
		fields = append(fields, Field{Name: fmt.Sprintf("f%d", i), Type: TInt64, Optional: true})
	}
	return MustRecordType("C", false, fields)
}

// fieldSpan is where a field handed over by a walk sits in its record.
type fieldSpan struct{ name, nameLen, enc, encLen int }

// spanIn locates name and enc, sub-slices of buf, in buf.
func spanIn(buf, name, enc []byte) fieldSpan {
	return fieldSpan{cap(buf) - cap(name), len(name), cap(buf) - cap(enc), len(enc)}
}

// FuzzValidateEncoded: on arbitrary bytes the verdict of ValidateEncoded is
// the verdict of DecodeOne followed by Validate. The store admits frames on
// the first and reads them back through the second, so a record one accepts
// and the other refuses is stored and then unreadable. ValidateFields gives
// the frozen two-walk validator's verdict and error text, and the fields it
// hands over of a record it accepts are ScanRecordFields' fields: the same
// spans of the same bytes, in the same order.
func FuzzValidateEncoded(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	for _, text := range []string{
		`{"id":"a","user":{"name":"u"}}`,
		`{"id":"a","user":{"name":"u","n":1,"extra":[1,{"k":{{2}}}]},"pos":{"x":1,"y":2},"tags":["a","b"],"refs":{{{"x":1},{"x":2,"y":null}}},"free":{"q":1}}`,
		`{"id":"a","user":{"name":"u"},"pos":null,"tags":missing}`,
		`{"id":"a","user":{"name":"u"},"pos":{"x":1,"z":2}}`,
		`{"id":"a","user":{"name":"u"},"refs":{{{"x":1,"z":2}}}}`,
		`{"id":"a","user":{"name":"u"},"refs":{{null}}}`,
		`{"id":"a","user":{"n":1}}`,
		`{"id":"a","user":{"name":null}}`,
		`{"id":"a","user":{"name":"u","n":"one"}}`,
		`{"id":"a","user":{"name":"u"},"tags":["a",1]}`,
		`{"id":"a","user":{"name":"u"},"tags":{{"a"}}}`,
		`{"id":"a","user":{"name":"u"},"tags":[1,2],"refs":{{{"x":1,"z":2},{"z":3}}}}`,
		`{"id":"a","user":[1]}`,
		`{"id":1,"user":{"name":"u"}}`,
		`{"user":{"name":"u"}}`,
		wideRecord(65),
		`{"id":"a","user":{"name":"u"},"deep":` + nestedLists(40) + `}`,
	} {
		enc, err := Transcode(nil, []byte(text))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(dupInUndeclared)
	// A type error, then bytes cut short: the byte error wins.
	typeThenCut, err := Transcode(nil, []byte(`{"id":1,"user":{"name":"u"}}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(typeThenCut[:len(typeThenCut)-1])
	rt := fuzzValidateType()
	closed := fuzzClosedType()
	f.Fuzz(func(t *testing.T, buf []byte) {
		want := func() error {
			v, err := DecodeOne(buf)
			if err != nil {
				return err
			}
			return rt.Validate(v)
		}()
		if got := rt.ValidateEncoded(buf); (got == nil) != (want == nil) {
			t.Fatalf("ValidateEncoded(%x) = %v, DecodeOne+Validate = %v", buf, got, want)
		}
		for _, typ := range []*RecordType{rt, closed} {
			var got []fieldSpan
			err := typ.ValidateFields(buf, func(name, enc []byte) { got = append(got, spanIn(buf, name, enc)) })
			if oracle := validateOracle(typ, buf); fmt.Sprint(err) != fmt.Sprint(oracle) {
				t.Fatalf("%s: ValidateFields(%x) = %v, the two-walk oracle = %v", typ.Name(), buf, err, oracle)
			}
			if err != nil {
				continue
			}
			var scanned []fieldSpan
			if _, err := ScanRecordFields(buf, func(name, enc []byte) bool {
				scanned = append(scanned, spanIn(buf, name, enc))
				return true
			}); err != nil {
				t.Fatalf("%s: ValidateFields accepted %x, ScanRecordFields refuses it: %v", typ.Name(), buf, err)
			}
			if !slices.Equal(got, scanned) {
				t.Fatalf("%s: ValidateFields handed over %v, ScanRecordFields %v", typ.Name(), got, scanned)
			}
		}
	})
}
