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
