package adm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// tweetLine is one line as TweetGen's server writes it (seed 1, first tweet).
const tweetLine = `{"id":"s1-p0-0000000000","user":{"screen_name":"MariaTanaka@407","lang":"hi","friends_count":81,"statuses_count":1318,"name":"Maria Tanaka","followers_count":54425},"latitude":29.356596814559374,"longitude":-102.54122583131853,"created_at":"2015-03-01T00:00:01","message_text":"enjoy #asterixdb its speed is nice #att","country":"US"}`

// nestedLists is depth opening brackets followed by as many closing ones.
func nestedLists(depth int) string {
	return strings.Repeat("[", depth) + strings.Repeat("]", depth)
}

// wideRecord is a record of n distinct int fields.
func wideRecord(n int) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"f%d":%d`, i, i)
	}
	b.WriteByte('}')
	return b.String()
}

// transcodeSeeds are the seeds that follow the code's own limits (and the
// TweetGen line the other tests use); every other one — each escape, the
// constructors good and bad, duplicate names, number edge cases, two-byte
// length and count patches — is a named file under
// testdata/fuzz/FuzzTranscode, which `go test` replays with these.
func transcodeSeeds() []string {
	return []string{
		tweetLine,
		wideRecord(transcodeMaxFields), wideRecord(transcodeMaxFields + 1),
		wideRecord(transcodeMaxFields+1) + "x",
		nestedLists(maxNesting), nestedLists(maxNesting + 1),
		strings.Repeat(`{"a":`, maxNesting+1) + `1` + strings.Repeat(`}`, maxNesting+1),
	}
}

// checkTranscode is the differential oracle: on src, Transcode must succeed
// exactly when Parse does; on success append exactly Encode of the parsed
// value after an untouched prefix; on failure return the prefix as it was,
// with Parse's own error.
func checkTranscode(t *testing.T, src string) {
	t.Helper()
	prefix := []byte("prefix")
	got, err := Transcode(prefix[:len(prefix):len(prefix)], []byte(src))
	v, perr := Parse(src)
	if (err == nil) != (perr == nil) {
		t.Fatalf("Transcode(%q) err = %v, Parse err = %v", src, err, perr)
	}
	if perr != nil {
		if err.Error() != perr.Error() {
			t.Fatalf("Transcode(%q) err = %q, Parse err = %q", src, err, perr)
		}
		if string(got) != "prefix" {
			t.Fatalf("Transcode(%q) failed but returned %q, want the prefix untouched", src, got)
		}
		return
	}
	if want := append([]byte("prefix"), Encode(v)...); !bytes.Equal(got, want) {
		t.Fatalf("Transcode(%q)\n got %x\nwant %x", src, got, want)
	}
	// Into a buffer with room to spare the answer is the same, and the
	// caller's prefix is still not written over.
	roomy := append(make([]byte, 0, 4*len(src)+64), "prefix"...)
	got, err = Transcode(roomy, []byte(src))
	if err != nil || !bytes.Equal(got[len("prefix"):], Encode(v)) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("Transcode(%q) into a roomy buffer: %x, %v", src, got, err)
	}
}

// FuzzTranscode: for any input, Transcode is Encode(Parse(input)) — same
// verdict, same bytes, same error.
func FuzzTranscode(f *testing.F) {
	for _, s := range transcodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkTranscode)
}

// TestNestingLimit: one hostile line of '[' used to overflow the goroutine
// stack (fatal, not recoverable). Both readers now stop at the same depth with
// the same error, and fast.
func TestNestingLimit(t *testing.T) {
	for _, open := range []string{"[", "{{", `{"a":`} {
		closing := map[string]string{"[": "]", "{{": "}}", `{"a":`: "}"}[open]
		nest := func(depth int) string {
			inner := "1"
			if open != `{"a":` {
				inner = ""
			}
			return strings.Repeat(open, depth) + inner + strings.Repeat(closing, depth)
		}
		ok, deep := nest(maxNesting), nest(maxNesting+1)
		if _, err := Parse(ok); err != nil {
			t.Errorf("Parse of %d nested %q: %v", maxNesting, open, err)
		}
		if _, err := Transcode(nil, []byte(ok)); err != nil {
			t.Errorf("Transcode of %d nested %q: %v", maxNesting, open, err)
		}
		_, perr := Parse(deep)
		_, terr := Transcode(nil, []byte(deep))
		if perr == nil || terr == nil || perr.Error() != terr.Error() || !strings.Contains(perr.Error(), "nesting deeper") {
			t.Errorf("%d nested %q: Parse err = %v, Transcode err = %v, want the same nesting error", maxNesting+1, open, perr, terr)
		}
	}
	// The largest line a feed scanner hands over.
	hostile := strings.Repeat("[", 1<<22-1)
	start := time.Now()
	_, perr := Parse(hostile)
	_, terr := Transcode(nil, []byte(hostile))
	if perr == nil || terr == nil {
		t.Fatalf("4 MiB of '[' accepted: Parse err = %v, Transcode err = %v", perr, terr)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("4 MiB of '[' took %v to refuse", d)
	}
}

func TestTranscodeAllocs(t *testing.T) {
	src := []byte(tweetLine)
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := Transcode(buf[:0], src)
		if err != nil || len(out) == 0 {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Transcode of a tweet into a reused buffer allocates %.1f times, want 0", allocs)
	}
}

func TestEncodeAllocatesOnce(t *testing.T) {
	v, err := Parse(tweetLine)
	if err != nil {
		t.Fatal(err)
	}
	var enc []byte
	if allocs := testing.AllocsPerRun(100, func() { enc = Encode(v) }); allocs != 1 {
		t.Fatalf("Encode of a tweet allocates %.1f times, want 1", allocs)
	}
	if len(enc) != cap(enc) {
		t.Fatalf("Encode returned len %d cap %d, want an exact-size slice", len(enc), cap(enc))
	}
}

func BenchmarkTranscodeTweet(b *testing.B) {
	src := []byte(tweetLine)
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = Transcode(buf[:0], src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeTweetAlloc(b *testing.B) {
	tw, err := Parse(tweetLine)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBytes = Encode(tw)
	}
}

var sinkBytes []byte
