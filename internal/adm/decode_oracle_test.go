package adm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// decodeOneOracle is DecodeOne as it was before the check walk sized the
// decode's slabs: SkipValue's verdict and no trailing bytes, then a second,
// unchecked walk that allocates each record's header and fields, and each
// list's header and items, on its own. It is frozen here as the independent
// reference FuzzDecodeOne holds DecodeOne and Decode to — same verdict, same
// error text, an Equal value — and shares only SkipValue, the byte check,
// with them. Edit it only to change the format on purpose, in the same
// commit as the decoder.
func decodeOneOracle(buf []byte) (Value, error) {
	if err := checkOne(buf); err != nil {
		return nil, err
	}
	v, _ := decodeOracle(buf, string(buf))
	return v, nil
}

// decodeOracle builds the value at the front of buf, bytes SkipValue
// accepted, and returns it with its length, cutting its strings from s, a
// copy of buf.
func decodeOracle(buf []byte, s string) (Value, int) {
	f64 := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])) }
	switch tag := TypeTag(buf[0]); tag {
	case TagMissing:
		return Missing{}, 1
	case TagNull:
		return Null{}, 1
	case TagBoolean:
		return Boolean(buf[1] == 1), 2
	case TagInt64:
		v, n := binary.Varint(buf[1:])
		return Int64(v), 1 + n
	case TagDatetime:
		v, n := binary.Varint(buf[1:])
		return Datetime(v), 1 + n
	case TagDouble:
		return Double(f64(1)), 9
	case TagString:
		ln, n := binary.Uvarint(buf[1:])
		pos := 1 + n
		return String(s[pos : pos+int(ln)]), pos + int(ln)
	case TagPoint:
		return Point{f64(1), f64(9)}, 17
	case TagRectangle:
		return Rectangle{Point{f64(1), f64(9)}, Point{f64(17), f64(25)}}, 33
	case TagOrderedList, TagUnorderedList:
		cnt, n := binary.Uvarint(buf[1:])
		pos := 1 + n
		items := make([]Value, cnt)
		for i := range items {
			var used int
			items[i], used = decodeOracle(buf[pos:], s[pos:])
			pos += used
		}
		if tag == TagOrderedList {
			return &OrderedList{Items: items}, pos
		}
		return &UnorderedList{Items: items}, pos
	case TagRecord:
		cnt, n := binary.Uvarint(buf[1:])
		pos := 1 + n
		r := &Record{fields: make([]field, cnt)}
		for i := range r.fields {
			ln, n := binary.Uvarint(buf[pos:])
			pos += n
			r.fields[i].name = s[pos : pos+int(ln)]
			pos += int(ln)
			var used int
			r.fields[i].value, used = decodeOracle(buf[pos:], s[pos:])
			pos += used
		}
		if cnt > maxUnindexedFields {
			r.index = make(map[string]int, cnt)
			for i, f := range r.fields {
				r.index[f.name] = i
			}
		}
		return r, pos
	}
	panic(fmt.Sprintf("adm: decode of unchecked tag 0x%02x", buf[0]))
}

// decodeSeeds are FuzzDecodeOne's own seeds beside fuzzSeeds: a TweetGen
// record as the benchmark's feeds write it, records on both sides of the
// name index and past the 16 names the check walk keeps on its stack, lists
// of records and bags of lists, a byte error after a good nested record, and
// trailing bytes.
func decodeSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	for _, text := range []string{
		`{"id":"s1-p0-0000000000","user":{"screen_name":"MariaTanaka@407","lang":"hi","friends_count":81,"statuses_count":1318,"name":"Maria Tanaka","followers_count":54425},"latitude":29.356596814559374,"longitude":-102.54122583131853,"created_at":"2015-03-01T00:00:01","message_text":"enjoy #asterixdb its speed is nice #att","country":"US"}`,
		wideRecord(9),
		wideRecord(17),
		`[{"a":1,"b":{"c":"x"}},{},{"a":[2,3]}]`,
		`{{[1,2],[],{{"a",[{"k":null}]}},[true]}}`,
	} {
		enc, err := Transcode(nil, []byte(text))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	// {"a":{"b":1},"c":true} with the boolean's byte out of range.
	badBool, err := Transcode(nil, []byte(`{"a":{"b":1},"c":true}`))
	if err != nil {
		f.Fatal(err)
	}
	badBool[len(badBool)-1] = 2
	seeds = append(seeds, badBool, append(Encode(MustRecord([]string{"a"}, []Value{Int64(1)})), byte(TagNull)))
	return seeds
}

// listSink keeps appendToLists' appends from being optimized away.
var listSink []Value

// appendToLists appends to the items of every list in v, the way a caller
// extending a decoded list would. A decoded list's items are cut from a
// slab shared with its siblings; they are cut to their own length, so no
// append may write into a sibling's slots.
func appendToLists(v Value) {
	switch t := v.(type) {
	case *OrderedList:
		listSink = append(t.Items, Missing{})
		for _, it := range t.Items {
			appendToLists(it)
		}
	case *UnorderedList:
		listSink = append(t.Items, Missing{})
		for _, it := range t.Items {
			appendToLists(it)
		}
	case *Record:
		for _, f := range t.fields {
			appendToLists(f.value)
		}
	}
}

// FuzzDecodeOne: on arbitrary bytes DecodeOne gives the frozen
// check-then-decode's verdict and error text, and on acceptance a value
// Equal to the oracle's that encodes back to exactly the input; Decode does
// the same on the value at the front of the bytes. Appending to every list
// of the decoded value leaves its encoding unchanged: no list's items reach
// into a sibling's slots of the shared slab.
func FuzzDecodeOne(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		v, err := DecodeOne(buf)
		want, wantErr := decodeOneOracle(buf)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("DecodeOne(%x) = %v; the oracle = %v", buf, err, wantErr)
		}
		if err == nil {
			if !Equal(v, want) {
				t.Fatalf("DecodeOne(%x) = %v; the oracle = %v", buf, v, want)
			}
			if enc := Encode(v); !bytes.Equal(enc, buf) {
				t.Fatalf("DecodeOne(%x) = %v, which encodes to %x", buf, v, enc)
			}
			appendToLists(v)
			if enc := Encode(v); !bytes.Equal(enc, buf) {
				t.Fatalf("appending to the lists of %v changed its encoding to %x", v, enc)
			}
		}
		dv, n, err := Decode(buf)
		m, wantErr := SkipValue(buf)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Decode(%x) = %v; SkipValue = %v", buf, err, wantErr)
		}
		if err != nil {
			return
		}
		if want, _ := decodeOracle(buf[:m], string(buf[:m])); n != m || !Equal(dv, want) {
			t.Fatalf("Decode(%x) = %v, %d; the oracle = %v, %d", buf, dv, n, want, m)
		}
		if enc := Encode(dv); !bytes.Equal(enc, buf[:n]) {
			t.Fatalf("Decode(%x) = %v, which encodes to %x", buf, dv, enc)
		}
	})
}
