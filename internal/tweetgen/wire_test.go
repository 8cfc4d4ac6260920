package tweetgen

import (
	"bytes"
	"testing"

	"asterixfeeds/internal/adm"
)

// TestWireLinesTranscodeIdentically: the wire format round-trips. Every line
// the server writes reaches the store, through the socket adaptor's
// adm.Transcode, as exactly the bytes of the tweet it was rendered from — over
// as many tweets as the benchmark's line pool holds. (adm's
// TestTweetGenLinesMatchOracle holds Transcode to the frozen parser on these
// lines.)
func TestWireLinesTranscodeIdentically(t *testing.T) {
	const lines = 16384
	gen := NewGenerator(7, 0)
	var scratch []byte
	for i := 0; i < lines; i++ {
		tweet := gen.Next()
		line := recordToJSON(tweet)
		var err error
		scratch, err = adm.Transcode(scratch[:0], []byte(line))
		if err != nil {
			t.Fatalf("line %d: Transcode: %v\n%s", i, err, line)
		}
		if want := adm.Encode(tweet); !bytes.Equal(scratch, want) {
			t.Fatalf("line %d transcodes to\n%x\nwant\n%x\n%s", i, scratch, want, line)
		}
	}
}
