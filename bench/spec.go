package main

import (
	"fmt"
	"strings"
)

// spec is one workload: the instance it boots, the feed network it
// connects, and the stream it is driven with.
type spec struct {
	name    string
	nodes   []string
	indexed bool // btree indexes on country and created_at
	cascade bool // secondary feed with the addHashTags UDF into Processed, at-least-once
	upsert  bool // keys are drawn from the preloaded ones
	// Exactly one of floodPerSec and pacedRate is set. A flood sends
	// floodPerSec × seconds records back to back, so its size follows
	// --seconds while its duration follows the system's speed; a paced
	// workload sends pacedRate records per second for --seconds.
	floodPerSec int64
	pacedRate   int64
	preload     int64
}

// specs are the benchmark's workloads. BENCHMARK.json lists them with the
// reason for each; later issues cite the names.
var specs = []spec{
	{name: "flood_plain_1n", nodes: []string{"nc1"}, floodPerSec: 70000, preload: 100000},
	{name: "paced_cascade_alo_3n", nodes: []string{"nc1", "nc2", "nc3"}, cascade: true, pacedRate: 8000, preload: 100000},
	{name: "upsert_reads_1n", nodes: []string{"nc1"}, indexed: true, upsert: true, pacedRate: 5000, preload: 200000},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// sizes is how much one run does. Only the smoke test departs from
// sizesFor.
type sizes struct {
	setups  int   // times the instance is set up; setup_s is their median
	preload int64 // records inserted and flushed before the feed connects
	records int64 // records of the measured stream
	// probe is the open-loop trickle sent after a flood has quiesced, which
	// gives a flood its lag_p50_ms; paced workloads take lag from the stream.
	probe   int64
	lookups int64 // individually timed lookups, beside a paced stream or after a flood
}

const (
	// probeRate is the rate, in records per second, of the trickle that
	// follows a flood, and probeSeconds its length.
	probeRate    = 2000
	probeSeconds = 2
	// readRate is the reader's rate in lookups per second. It runs beside
	// a paced stream, or alone for readSeconds after a flood's trickle.
	readRate    = 2000
	readSeconds = 4
)

func (sp spec) sizesFor(seconds int) sizes {
	z := sizes{setups: 5, preload: sp.preload}
	if sp.floodPerSec > 0 {
		z.records = sp.floodPerSec * int64(seconds)
		z.probe = probeRate * probeSeconds
		z.lookups = readRate * readSeconds
	} else {
		z.records = sp.pacedRate * int64(seconds)
		z.lookups = readRate * int64(seconds)
	}
	return z
}

const (
	dataverse     = "feeds"
	tweets        = "Tweets"
	processed     = "Processed"
	primaryFeed   = "TwitterFeed"
	secondaryFeed = "ProcessedFeed"
)

// datasets lists the datasets the workload's feeds store into, the deepest
// path last.
func (sp spec) datasets() []string {
	if sp.cascade {
		return []string{tweets, processed}
	}
	return []string{tweets}
}

// schemaDDL declares the types, datasets, indexes and the UDF.
func (sp spec) schemaDDL() string {
	var b strings.Builder
	b.WriteString(`use dataverse feeds;
create type TwitterUser as open {
	screen_name: string, lang: string, friends_count: int32,
	statuses_count: int32, name: string, followers_count: int32
};
create type Tweet as open {
	id: string, user: TwitterUser, latitude: double?, longitude: double?,
	created_at: string, message_text: string, country: string?
};
create dataset Tweets(Tweet) primary key id;
`)
	if sp.indexed {
		b.WriteString("create index countryIdx on Tweets(country);\n")
		b.WriteString("create index createdIdx on Tweets(created_at);\n")
	}
	if sp.cascade {
		b.WriteString(`create dataset Processed(Tweet) primary key id;
create function addHashTags($x) {
	let $topics := (for $token in word-tokens($x.message_text)
		where starts-with($token, "#")
		return $token)
	return record-merge($x, {"topics": $topics})
};
`)
	}
	return b.String()
}

// feedDDL declares the feeds over the source at addr and connects them.
func (sp spec) feedDDL(addr string) string {
	ddl := fmt.Sprintf(`use dataverse feeds;
create feed TwitterFeed using socket_adaptor ("sockets"="%s");
`, addr)
	if sp.cascade {
		ddl += "create secondary feed ProcessedFeed from feed TwitterFeed apply function addHashTags;\n"
	}
	ddl += "connect feed TwitterFeed to dataset Tweets using policy Basic;\n"
	if sp.cascade {
		ddl += "connect feed ProcessedFeed to dataset Processed using policy AtLeastOnce;\n"
	}
	return ddl
}
