package core

import (
	"bytes"
	"strings"
	"testing"

	"asterixfeeds/internal/adm"
)

// builtinsUnderTest are the functions with ApplyEncoded: each built-in and
// their compositions.
func builtinsUnderTest() []RecordFunction {
	return []RecordFunction{
		AddHashTags(),
		SentimentAnalysis(),
		ComposeFunctions(AddHashTags(), SentimentAnalysis()),
		ComposeFunctions(SentimentAnalysis(), AddHashTags(), AddHashTags()),
	}
}

// checkEncodedMatchesDecoded fails t unless fn.ApplyEncoded(rec) returns
// what applyDecoded does — bytes, filter verdict and error text — and leaves
// rec untouched.
func checkEncodedMatchesDecoded(t *testing.T, fn RecordFunction, rec []byte) {
	t.Helper()
	enc, ok := fn.(EncodedRecordFunction)
	if !ok {
		t.Fatalf("%s does not implement EncodedRecordFunction", fn.Name())
	}
	want, werr := applyDecoded(fn, rec)
	before := append([]byte(nil), rec...)
	got, err := enc.ApplyEncoded(rec)
	if !bytes.Equal(rec, before) {
		t.Fatalf("%s: ApplyEncoded modified its input %x", fn.Name(), before)
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s(%x): ApplyEncoded error %v, decode path %v", fn.Name(), rec, err, werr)
	}
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%s(%x):\nApplyEncoded %x\ndecode path  %x", fn.Name(), rec, got, want)
	}
}

// TestApplyEncodedAllocatesOnce: the output record is the one allocation.
func TestApplyEncodedAllocatesOnce(t *testing.T) {
	rec := adm.Encode(tweet(7, 0, "love #att its signal is good #iphone"))
	for _, fn := range []RecordFunction{AddHashTags(), SentimentAnalysis()} {
		enc := fn.(EncodedRecordFunction)
		if n := testing.AllocsPerRun(100, func() { enc.ApplyEncoded(rec) }); n != 1 {
			t.Errorf("%s: ApplyEncoded allocates %v times per record, want 1", fn.Name(), n)
		}
	}
}

func TestComposeEncodedOnlyWhenEveryStageIs(t *testing.T) {
	if _, ok := ComposeFunctions(AddHashTags(), SentimentAnalysis()).(EncodedRecordFunction); !ok {
		t.Error("a chain of built-ins does not keep records encoded")
	}
	if _, ok := ComposeFunctions(AddHashTags(), DelayFunction("d", 0)).(EncodedRecordFunction); ok {
		t.Error("a chain with a decode-only stage claims ApplyEncoded")
	}
}

// FuzzBuiltinsEncoded: every built-in's ApplyEncoded returns what decode →
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
