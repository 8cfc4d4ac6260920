package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// jsonKeys returns the keys of the JSON object in b, in order, descending
// into objects and arrays of objects as path.key.
func jsonKeys(t *testing.T, b []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	var keys []string
	var walk func(prefix string)
	walk = func(prefix string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, prefix+k.(string))
				walk(prefix + k.(string) + ".")
			}
			_, _ = dec.Token()
		case json.Delim('['):
			for dec.More() {
				walk(prefix)
			}
			_, _ = dec.Token()
		}
	}
	walk("")
	return keys
}

// TestFeedActivityJSONKeys pins the keys /feeds serves: a partition's
// counters are SubscriptionStats, embedded, under the keys they had when
// PartitionActivity spelled them out.
func TestFeedActivityJSONKeys(t *testing.T) {
	b, err := json.Marshal(FeedActivity{
		Error:         "e",
		ElasticEvents: []string{"x"},
		Partitions:    []PartitionActivity{{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"connection", "feed", "dataset", "policy", "state", "error",
		"intakeNodes", "computeNodes", "storeNodes", "computeCount",
		"collectedTotal", "computedTotal", "persistedTotal", "collectRate", "computeRate", "persistRate",
		"backlog", "pendingAcks", "softFailures", "storeErrors", "replayed", "replayDropped",
		"discarded", "throttledOut", "spilledTotal", "spilledBytes", "spillErrors", "governorShed", "priority",
		"latencyP50Ns", "latencyP99Ns", "elasticEvents", "partitions",
		"partitions.partition", "partitions.node", "partitions.backlog", "partitions.spilledFrames",
		"partitions.spilledBytes", "partitions.received", "partitions.discarded", "partitions.throttledOut",
		"partitions.spilledTotal", "partitions.spillErrors", "partitions.governorShed",
	}
	if got := jsonKeys(t, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("/feeds keys\n got %q\nwant %q", got, want)
	}
}

// TestSubscriptionStatsAddSumsEveryCounter: add is the one sum of the
// subscription counters, so it must cover every field.
func TestSubscriptionStatsAddSumsEveryCounter(t *testing.T) {
	one := SubscriptionStats{}
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	var sum SubscriptionStats
	sum.add(one)
	sum.add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got := s.Field(i).Int(); got != 2*int64(i+1) {
			t.Errorf("%s sums to %d, want %d", s.Type().Field(i).Name, got, 2*(i+1))
		}
	}
}
