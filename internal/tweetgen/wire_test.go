package tweetgen

import (
	"bytes"
	"testing"

	"asterixfeeds/internal/adm"
)

// TestWireLinesTranscodeIdentically: every line the server writes reaches
// the store, through the socket adaptor's adm.Transcode, as exactly the bytes
// the old Parse-then-Encode path produced — over as many tweets as the
// benchmark's line pool holds.
func TestWireLinesTranscodeIdentically(t *testing.T) {
	const lines = 16384
	gen := NewGenerator(7, 0)
	var scratch []byte
	for i := 0; i < lines; i++ {
		line := recordToJSON(gen.Next())
		v, err := adm.Parse(line)
		if err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		scratch, err = adm.Transcode(scratch[:0], []byte(line))
		if err != nil {
			t.Fatalf("line %d: Transcode: %v\n%s", i, err, line)
		}
		if want := adm.Encode(v); !bytes.Equal(scratch, want) {
			t.Fatalf("line %d transcodes to\n%x\nwant\n%x\n%s", i, scratch, want, line)
		}
	}
}
