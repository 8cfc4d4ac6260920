package adm_test

import (
	"strconv"
	"strings"
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/tweetgen"
)

// TestTweetGenLinesMatchOracle: the lines every feed in the benchmark reads —
// TweetGen tweets in its wire format — read back through the frozen parser to
// the tweet that was rendered, and Transcode agrees with that parser on every
// one of them: verdict, bytes, error text, and dst untouched. This is the
// differential check of the transcoder on the live workload's input, which
// the benchmark's own read-back (through Parse, which is Transcode) no
// longer is.
func TestTweetGenLinesMatchOracle(t *testing.T) {
	const lines = 16384
	var b strings.Builder
	for _, seed := range []int64{1, 7} {
		gen := tweetgen.NewGenerator(seed, 0)
		for i := 0; i < lines; i++ {
			tweet := gen.Next()
			b.Reset()
			writeWire(&b, tweet)
			line := b.String()
			v, err := adm.ParseOracle(line)
			if err != nil || !adm.Equal(v, tweet) {
				t.Fatalf("seed %d line %d reads back as %v, %v\n%s", seed, i, v, err, line)
			}
			adm.CheckTranscode(t, line)
		}
	}
}

// writeWire renders v as TweetGen's server and the benchmark's line pool do:
// one JSON document, names quoted by strconv.Quote, scalars in their ADM text
// form.
func writeWire(b *strings.Builder, v adm.Value) {
	rec, ok := v.(*adm.Record)
	if !ok {
		b.WriteString(v.String())
		return
	}
	b.WriteByte('{')
	for i := 0; i < rec.NumFields(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		name, fv := rec.FieldAt(i)
		b.WriteString(strconv.Quote(name))
		b.WriteByte(':')
		writeWire(b, fv)
	}
	b.WriteByte('}')
}

// TestDecodeOneTweetGenAllocs: a decoded TweetGen record shares one copy of
// its bytes — its field names and strings are substrings of it, and records
// this narrow carry no name index — and its two records and their fields
// are cut from two slabs the check walk sized, so a point read's decode
// allocates the copy, the two slabs, and one box per value that needs one:
// 14 objects. The record owns that copy: overwriting the input afterwards
// changes nothing.
func TestDecodeOneTweetGenAllocs(t *testing.T) {
	tweet := tweetgen.NewGenerator(1, 0).Next()
	enc := adm.Encode(tweet)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := adm.DecodeOne(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs > 14 {
		t.Errorf("DecodeOne of a TweetGen record allocates %.0f times, want ≤ 14", allocs)
	}
	v, err := adm.DecodeOne(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xFF
	}
	if !adm.Equal(v, tweet) {
		t.Fatalf("decoded record changed with its input:\n got %v\nwant %v", v, tweet)
	}
}

// TestDecodeOneScalarAllocs: a value with no string and no field name cuts
// nothing from a copy of its bytes, so decoding it makes no copy — only the
// box a scalar needs, or a list's slab and its items' boxes.
func TestDecodeOneScalarAllocs(t *testing.T) {
	for _, c := range []struct {
		v    adm.Value
		want float64
	}{
		{adm.Int64(1 << 40), 1},
		{adm.Double(0.25), 1},
		{adm.Point{X: 1, Y: 2}, 1},
		{&adm.OrderedList{Items: []adm.Value{adm.Int64(1 << 40), adm.Double(0.5)}}, 4},
		{adm.String("s"), 2},
	} {
		enc := adm.Encode(c.v)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := adm.DecodeOne(enc); err != nil {
				t.Fatal(err)
			}
		}); allocs != c.want {
			t.Errorf("DecodeOne(%v) allocates %.0f times, want %.0f", c.v, allocs, c.want)
		}
	}
}

// BenchmarkTweetGenWalks times each walk of a TweetGen record's bytes: the
// check alone, the hash of the stored key path, and the two decodes.
func BenchmarkTweetGenWalks(b *testing.B) {
	enc := adm.Encode(tweetgen.NewGenerator(1, 0).Next())
	walks := []struct {
		name string
		walk func() error
	}{
		{"SkipValue", func() error { _, err := adm.SkipValue(enc); return err }},
		{"HashEncoded", func() error { _, err := adm.HashEncoded(enc); return err }},
		{"DecodeOne", func() error { _, err := adm.DecodeOne(enc); return err }},
		{"Decode", func() error { _, _, err := adm.Decode(enc); return err }},
	}
	for _, w := range walks {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.walk(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
