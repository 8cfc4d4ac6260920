package core_test

import (
	"bytes"
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/tweetgen"
)

// TestBuiltinsEncodedOnTweetGenPool: over 20 000 TweetGen tweets — fresh, and
// already carrying the fields the functions set — the compute stage's
// encoded path stores the bytes decode → Apply → encode would have stored.
func TestBuiltinsEncodedOnTweetGenPool(t *testing.T) {
	fns := []core.RecordFunction{
		core.AddHashTags(),
		core.SentimentAnalysis(),
		core.ComposeFunctions(core.AddHashTags(), core.SentimentAnalysis()),
	}
	gen := tweetgen.NewGenerator(27, 0)
	for i := 0; i < 20000; i++ {
		tweet := gen.Next()
		recs := []*adm.Record{tweet}
		if i%2 == 1 {
			recs = append(recs, tweet.
				WithField("topics", &adm.OrderedList{Items: []adm.Value{adm.String("#stale")}}).
				WithField("sentiment", adm.Double(-1)))
		}
		for _, rec := range recs {
			enc := adm.Encode(rec)
			for _, fn := range fns {
				want, err := fn.Apply(rec)
				if err != nil {
					t.Fatalf("%s.Apply(%s): %v", fn.Name(), rec, err)
				}
				got, err := fn.(core.EncodedRecordFunction).ApplyEncoded(enc)
				if err != nil || !bytes.Equal(got, adm.Encode(want)) {
					t.Fatalf("%s on %s:\nApplyEncoded %x, %v\nwant         %x", fn.Name(), rec, got, err, adm.Encode(want))
				}
			}
		}
	}
}
