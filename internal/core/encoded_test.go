package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/hyracks"
)

// builtinsUnderTest are the functions with AppendEncoded: each built-in and
// their compositions.
func builtinsUnderTest() []RecordFunction {
	return []RecordFunction{
		AddHashTags(),
		SentimentAnalysis(),
		ComposeFunctions(AddHashTags(), SentimentAnalysis()),
		ComposeFunctions(SentimentAnalysis(), AddHashTags(), AddHashTags()),
	}
}

// checkEncodedMatchesDecoded fails t unless fn.AppendEncoded appends to a
// frame's earlier records what appendDecoded does — bytes, filter verdict
// and error text — leaving those records and rec untouched: once with rec in
// a buffer of its own, and once with rec inside dst's array, below len(dst),
// as when a chain feeds one stage's output to the next.
func checkEncodedMatchesDecoded(t *testing.T, fn RecordFunction, rec []byte) {
	t.Helper()
	enc, ok := fn.(EncodedRecordFunction)
	if !ok {
		t.Fatalf("%s does not implement EncodedRecordFunction", fn.Name())
	}
	prefix := []byte("earlier records")
	want, werr := appendDecoded(append([]byte(nil), prefix...), fn, rec)
	before := append([]byte(nil), rec...)
	inside := append(append([]byte(nil), prefix...), rec...)
	for _, c := range []struct {
		dst, rec []byte
	}{
		{append([]byte(nil), prefix...), rec},
		{inside, inside[len(prefix):]},
	} {
		pre := append([]byte(nil), c.dst...)
		got, err := enc.AppendEncoded(c.dst, c.rec)
		if !bytes.Equal(c.rec, before) {
			t.Fatalf("%s: AppendEncoded modified its input %x", fn.Name(), before)
		}
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%s(%x): AppendEncoded error %v, decode path %v", fn.Name(), rec, err, werr)
		}
		if !bytes.Equal(got[:len(pre)], pre) {
			t.Fatalf("%s(%x): AppendEncoded changed dst's %d earlier bytes", fn.Name(), rec, len(pre))
		}
		if !bytes.Equal(got[len(pre):], want[len(prefix):]) {
			t.Fatalf("%s(%x):\nAppendEncoded %x\ndecode path   %x", fn.Name(), rec, got[len(pre):], want[len(prefix):])
		}
	}
}

// TestAppendEncodedAllocatesNothing: into a frame's scratch with room, each
// built-in and a chain of them append a record without allocating — the
// frame, not the record, pays for the bytes.
func TestAppendEncodedAllocatesNothing(t *testing.T) {
	rec := adm.Encode(tweet(7, 0, "love #att its signal is good #iphone"))
	dst := make([]byte, 0, 4096)
	for _, fn := range builtinsUnderTest() {
		enc := fn.(EncodedRecordFunction)
		if n := testing.AllocsPerRun(100, func() { enc.AppendEncoded(dst, rec) }); n != 0 {
			t.Errorf("%s: AppendEncoded allocates %v times per record, want 0", fn.Name(), n)
		}
	}
}

func TestComposeEncodedOnlyWhenEveryStageIs(t *testing.T) {
	if _, ok := ComposeFunctions(AddHashTags(), SentimentAnalysis()).(EncodedRecordFunction); !ok {
		t.Error("a chain of built-ins does not keep records encoded")
	}
	if _, ok := ComposeFunctions(AddHashTags(), DelayFunction("d", 0)).(EncodedRecordFunction); ok {
		t.Error("a chain with a decode-only stage claims AppendEncoded")
	}
}

// FuzzBuiltinsEncoded: every built-in's AppendEncoded appends what decode →
// Apply → encode returns, error text included — on a tweet with any
// message_text, on that tweet already carrying the fields the functions set,
// on it carrying message_text twice (which the decoder refuses), and on
// arbitrary bytes.
func FuzzBuiltinsEncoded(f *testing.F) {
	for _, text := range []string{
		"going #home to #irvine today",
		"I LOVE this Great product!!! #Win",
		"  leading and trailing\t\n",
		"# #a ##b #c#d",
		"",
		"Ünïcödé #tägs #nbsp\u00a0x\u0085#nel\u2003#emspace",
		"li\u212Ae it, LI\u212AE",        // a Kelvin sign lowers to an ASCII k
		"LOVE\xff #bad\xfe \xf0\x9f\x98", // bytes that are not UTF-8
		"hate. worst, #sad! good? @nice #",
		strings.Repeat("#long", 100) + " " + strings.Repeat("lovE", 40),
	} {
		f.Add(text, []byte(nil))
	}
	for _, raw := range [][]byte{
		adm.Encode(adm.String("not a record")),
		adm.Encode((&adm.RecordBuilder{}).Add("id", adm.String("x")).MustBuild()),
		adm.Encode((&adm.RecordBuilder{}).Add("message_text", adm.Int64(3)).MustBuild()),
		adm.Encode((&adm.RecordBuilder{}).Add("message_text", adm.Null{}).MustBuild()),
		{byte(adm.TagRecord), 2, 1, 'q', byte(adm.TagNull), 1, 'q', byte(adm.TagNull)},
		{byte(adm.TagRecord), 1, 12, 'm', 'e', 's', 's', 'a', 'g', 'e', '_', 't', 'e', 'x', 't', byte(adm.TagString), 5, '#', 'a', ' ', '#'},
	} {
		f.Add("", raw)
	}
	fns := builtinsUnderTest()
	f.Fuzz(func(t *testing.T, text string, raw []byte) {
		r := tweet(1, 0, text)
		dup := adm.Encode(r.WithField("message_texu", adm.String("#late")))
		dup[bytes.LastIndex(dup, []byte("message_texu"))+11] = 't'
		recs := [][]byte{
			adm.Encode(r),
			adm.Encode(r.WithField("topics", adm.Int64(1)).WithField("sentiment", adm.Null{})),
			dup,
			raw,
		}
		for _, fn := range fns {
			for _, rec := range recs {
				checkEncodedMatchesDecoded(t, fn, rec)
			}
		}
	})
}

// TestAssignFrameAllocs: the compute stage's encoded path builds a
// 128-record output frame in its reused scratch, so the frame costs three
// allocations whatever its records — the frame, its record slice and its
// bytes — and each output record is byte for byte what decode → Apply →
// encode makes.
func TestAssignFrameAllocs(t *testing.T) {
	const perFrame = 128
	fn := AddHashTags()
	conn := &Connection{pol: &Policy{RecoverSoft: true}, Metrics: newConnMetrics(time.Second)}
	var got *hyracks.Frame
	r := &assignRuntime{
		op:    &assignOp{conn: conn, fn: fn, signature: "feeds.G"},
		out:   hyracks.FuncWriter(func(f *hyracks.Frame) error { got = f; return nil }),
		joint: newJoint("feeds.G", 0),
		mf:    newMetaFeed("assign:"+fn.Name(), "A", conn.pol, nil),
		apply: fn.(EncodedRecordFunction).AppendEncoded,
	}
	in := hyracks.NewFrame(perFrame)
	for i := 0; i < perFrame; i++ {
		in.Append(adm.Encode(tweet(i, 0, "love #att its signal is good #iphone")))
	}
	frame := func() {
		if err := r.NextFrame(in); err != nil || got.Len() != perFrame {
			t.Fatalf("NextFrame: %v, %d records out", err, got.Len())
		}
	}
	frame() // warm: the scratch grows to a frame's bytes
	for i, rec := range got.Records {
		want, err := appendDecoded(nil, fn, in.Records[i])
		if err != nil || !bytes.Equal(rec, want) || cap(rec) != len(rec) {
			t.Fatalf("output record %d = %x (cap %d), want %x", i, rec, cap(rec), want)
		}
	}
	if n := testing.AllocsPerRun(20, frame); n != 3 {
		t.Errorf("a %d-record output frame allocates %.1f times, want 3", perFrame, n)
	}
}
