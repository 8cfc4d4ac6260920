package adm

import (
	"bytes"
	"errors"
	"testing"
)

// appendWithFieldReference is AppendWithField's specification: decode,
// WithField, encode.
func appendWithFieldReference(dst, rec []byte, name string, v Value) ([]byte, error) {
	got, _, err := Decode(rec)
	if err != nil {
		return nil, err
	}
	r, ok := got.(*Record)
	if !ok {
		return nil, errNotRecord
	}
	return AppendValue(dst, r.WithField(name, v)), nil
}

// errNotRecord is the reference's refusal of a value that decodes but is
// not a record; AppendWithField's wording for it is its own.
var errNotRecord = errors.New("not a record")

func TestAppendWithField(t *testing.T) {
	mustTranscode := func(s string) []byte {
		enc, err := Transcode(nil, []byte(s))
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	topics := &OrderedList{Items: []Value{String("#a"), String("#b")}}
	cases := map[string]struct {
		rec  []byte
		name string
	}{
		"append":         {mustTranscode(`{"id":"x","message_text":"#a #b"}`), "topics"},
		"replace first":  {mustTranscode(`{"topics":[],"id":"x"}`), "topics"},
		"replace middle": {mustTranscode(`{"id":"x","topics":["#old","#older"],"n":1}`), "topics"},
		"replace last":   {mustTranscode(`{"id":"x","topics":null}`), "topics"},
		"empty record":   {mustTranscode(`{}`), "topics"},
		"empty name":     {mustTranscode(`{"":1}`), ""},
		"trailing bytes": {append(mustTranscode(`{"id":"x"}`), 0xFF, 0xFF), "topics"},
		"wide":           {mustTranscode(wideRecord(1000)), "topics"},
		"wide, replace":  {mustTranscode(wideRecord(1000)), "f999"},
		"deep":           {mustTranscode(`{"d":` + nestedLists(127) + `}`), "topics"},
	}
	for name, c := range cases {
		want, err := appendWithFieldReference([]byte("pre"), c.rec, c.name, topics)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		before := append([]byte(nil), c.rec...)
		got, err := AppendWithField([]byte("pre"), c.rec, c.name, Encode(topics))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: AppendWithField = %x, %v\nwant %x", name, got, err, want)
		}
		if !bytes.Equal(c.rec, before) {
			t.Errorf("%s: AppendWithField modified its input", name)
		}
	}
	refused := map[string][]byte{
		"empty":               nil,
		"not a record":        Encode(Int64(1)),
		"truncated":           mustTranscode(`{"id":"x"}`)[:5],
		"repeat at top":       {byte(TagRecord), 2, 1, 'q', byte(TagNull), 1, 'q', byte(TagNull)},
		"repeat two down":     dupInUndeclared,
		"repeat in a list":    append([]byte{byte(TagRecord), 1, 1, 'l', byte(TagOrderedList), 1}, dupInUndeclared...),
		"unknown tag in list": {byte(TagRecord), 1, 1, 'l', byte(TagOrderedList), 1, 0x7F},
		"true as 2":           {byte(TagRecord), 1, 1, 'b', byte(TagBoolean), 2},
		"long count":          {byte(TagRecord), 0x81, 0x00, 1, 'b', byte(TagNull)},
	}
	for name, rec := range refused {
		_, werr := appendWithFieldReference(nil, rec, "topics", topics)
		dst := []byte("pre")
		got, err := AppendWithField(dst, rec, "topics", Encode(topics))
		if err == nil || werr == nil {
			t.Errorf("%s: AppendWithField = %x, %v; reference error %v", name, got, err, werr)
		} else if werr != errNotRecord && err.Error() != werr.Error() {
			t.Errorf("%s: error %q, Decode's is %q", name, err, werr)
		}
		if string(got) != "pre" {
			t.Errorf("%s: dst changed on failure: %q", name, got)
		}
	}
}

// TestAppendWithFieldGrowsOnce: with a nil dst the result is one allocation.
func TestAppendWithFieldGrowsOnce(t *testing.T) {
	rec, err := Transcode(nil, []byte(`{"id":"s11-p0-0000000001","user":{"screen_name":"a","lang":"en"},"message_text":"love #att its signal is good #iphone"}`))
	if err != nil {
		t.Fatal(err)
	}
	enc := Encode(&OrderedList{Items: []Value{String("#att"), String("#iphone")}})
	for _, name := range []string{"topics", "message_text"} {
		if n := testing.AllocsPerRun(100, func() { AppendWithField(nil, rec, name, enc) }); n != 1 {
			t.Errorf("AppendWithField(nil, %q) allocates %v times, want 1", name, n)
		}
	}
}

// FuzzAppendWithField: on arbitrary record bytes, AppendWithField appends
// exactly what decode → WithField → encode does, or fails with Decode's
// error; it never touches its input, and leaves dst as it was on failure.
// The field's value comes from the fuzzer too: any bytes DecodeOne accepts.
func FuzzAppendWithField(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s, "tags", Encode(Null{}))
		f.Add(s, "topics", Encode(&OrderedList{Items: []Value{String("#a")}}))
	}
	for _, text := range []string{
		`{"id":"a","message_text":"#x y","topics":["#x"]}`,
		`{"id":"a","user":{"name":"u","n":1,"extra":[1,{"k":{{2}}}]},"tags":["a","b"]}`,
		wideRecord(65),
		`{"d":` + nestedLists(40) + `}`,
	} {
		enc, err := Transcode(nil, []byte(text))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, "topics", Encode(String("v")))
		f.Add(enc, "id", Encode(Int64(200)))
	}
	f.Add(dupInUndeclared, "id", Encode(Null{}))
	f.Add([]byte{byte(TagRecord), 1, 1, 'b', byte(TagBoolean), 2}, "b", Encode(Boolean(true)))
	f.Fuzz(func(t *testing.T, rec []byte, name string, value []byte) {
		v, err := DecodeOne(value)
		if err != nil {
			return
		}
		want, werr := appendWithFieldReference([]byte{0xAB}, rec, name, v)
		before := append([]byte(nil), rec...)
		got, err := AppendWithField([]byte{0xAB}, rec, name, Encode(v))
		if !bytes.Equal(rec, before) {
			t.Fatalf("AppendWithField modified its input %x", before)
		}
		switch {
		case werr != nil:
			if err == nil {
				t.Fatalf("AppendWithField(%x) = %x; the reference fails with %v", rec, got, werr)
			}
			if werr != errNotRecord && err.Error() != werr.Error() {
				t.Fatalf("AppendWithField(%x) fails with %q, Decode with %q", rec, err, werr)
			}
			if !bytes.Equal(got, []byte{0xAB}) {
				t.Fatalf("dst changed on failure: %x", got)
			}
		case err != nil:
			t.Fatalf("AppendWithField(%x) fails with %v; the reference gives %x", rec, err, want)
		case !bytes.Equal(got, want):
			t.Fatalf("AppendWithField(%x, %q) = %x, want %x", rec, name, got, want)
		}
	})
}
