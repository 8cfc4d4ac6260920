package asterixfeeds

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/tweetgen"
)

// TestAdminEndpointsDuringLiveFeed smoke-tests the feedwatch surface while a
// socket feed is actively ingesting: /feeds must report a connected feed
// with moving counters, /metrics must expose the same series in Prometheus
// text form, pprof must answer, and the `show feeds` verb must render the
// same snapshot through the AQL result machinery.
func TestAdminEndpointsDuringLiveFeed(t *testing.T) {
	srv := tweetgen.NewServer(tweetgen.ConstantPattern(5000, 30*time.Second), 97)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inst := startTest(t, "A", "B")
	inst.MustExec(tweetDDL)
	inst.MustExec(fmt.Sprintf(`use dataverse feeds;
		create feed WatchFeed using socket_adaptor ("sockets"="%s");
		connect feed WatchFeed to dataset Tweets using policy Basic;`, addr))

	ts := httptest.NewServer(inst.ConsoleHandler())
	defer ts.Close()

	waitCount(t, inst, "Tweets", 300, 20*time.Second)

	// /feeds: the live connection with non-zero totals.
	var acts []core.FeedActivity
	getJSON(t, ts.URL+"/feeds", &acts)
	if len(acts) != 1 {
		t.Fatalf("/feeds reported %d connections, want 1", len(acts))
	}
	a := acts[0]
	if a.State != "connected" {
		t.Fatalf("/feeds state = %q, want connected", a.State)
	}
	if a.PersistedTotal < 300 || a.CollectedTotal < a.PersistedTotal {
		t.Fatalf("/feeds totals incoherent: collected %d, persisted %d", a.CollectedTotal, a.PersistedTotal)
	}
	if len(a.IntakeNodes) == 0 || len(a.StoreNodes) == 0 {
		t.Fatalf("/feeds placement missing: %+v", a)
	}

	// The snapshot must agree with the registry it was derived from:
	// persisted only grows, so the later registry read bounds it below.
	reg := inst.Registry()
	if v, ok := reg.Value("feed." + a.Connection + ".persisted"); !ok || v < a.PersistedTotal {
		t.Fatalf("registry persisted = %d,%v, want >= /feeds total %d", v, ok, a.PersistedTotal)
	}
	window := false
	for _, s := range reg.Snapshot() {
		window = window || s.Name == "feed."+a.Connection+".persisted" && s.Kind == "window"
	}
	if !window {
		t.Fatal("registry has no persisted window (and so no rate) for the live connection")
	}

	// /metrics: Prometheus text with feed series and node-level LSM/frame
	// counters beside them.
	body := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		"persisted_total", "persisted_rate", "latency_p99_seconds",
		"node_A_frames", "node_A_lsm_wal_appends",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// pprof answers.
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}

	// `show feeds` renders the same connection through the AQL verb.
	results := inst.MustExec("show feeds;")
	if len(results) != 1 || results[0].Kind != "show-feeds" {
		t.Fatalf("show feeds results = %+v", results)
	}
	lst, ok := results[0].Value.(*adm.OrderedList)
	if !ok || len(lst.Items) != 1 {
		t.Fatalf("show feeds value = %T with %v items", results[0].Value, lst)
	}
	rec := lst.Items[0].(*adm.Record)
	if v, _ := rec.Field("connection"); string(v.(adm.String)) != a.Connection {
		t.Fatalf("show feeds connection = %v, want %s", v, a.Connection)
	}
	if v, _ := rec.Field("persistedTotal"); int64(v.(adm.Int64)) < 300 {
		t.Fatalf("show feeds persistedTotal = %v, want >= 300", v)
	}

	inst.MustExec(`disconnect feed WatchFeed from dataset Tweets;`)

	// Teardown unregisters the connection's series; /feeds still lists the
	// disconnected connection with its final counters.
	if _, ok := reg.Value("feed." + a.Connection + ".persisted"); ok {
		t.Fatal("registry still serves a torn-down connection's series")
	}
	getJSON(t, ts.URL+"/feeds", &acts)
	if len(acts) != 1 || acts[0].State != "disconnected" {
		t.Fatalf("/feeds after disconnect = %+v", acts)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsDocMatchesRegistry keeps docs/METRICS.md honest: every series a
// live instance registers must be documented, and every documented series
// must still exist. Node names normalize to `node.<n>.` and connection ids
// to `feed.<conn>.`, matching the doc's placeholder convention.
func TestMetricsDocMatchesRegistry(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(tweetDDL)
	inst.MustExec(`
		create feed DocFeed using tweetgen_adaptor ("rate"="3000", "count"="50", "seed"="11");
		connect feed DocFeed to dataset Tweets using policy Basic;
	`)
	waitCount(t, inst, "Tweets", 50, 20*time.Second)

	acts := inst.Feeds().FeedActivity()
	if len(acts) != 1 {
		t.Fatalf("feed activity = %d entries, want 1", len(acts))
	}
	connID := acts[0].Connection

	live := map[string]bool{}
	for _, s := range inst.Registry().Snapshot() {
		name := strings.Replace(s.Name, "feed."+connID+".", "feed.<conn>.", 1)
		name = strings.Replace(name, "node.A.", "node.<n>.", 1)
		live[name] = true
	}

	doc, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`((?:node|feed)\\.[^`*]+)`").FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}

	for name := range live {
		if !documented[name] {
			t.Errorf("live series %q is not documented in docs/METRICS.md", name)
		}
	}
	for name := range documented {
		if !live[name] {
			t.Errorf("docs/METRICS.md documents %q, which no live instance registers", name)
		}
	}
}

// TestShowFeedsMatchesFeedActivity: a `show feeds` row carries every key of
// FeedActivity's JSON, so the AQL verb and /feeds show the same fields. The
// stated exceptions: the per-partition breakdown and the elastic-event log
// are left out, and the latency pair is shown in milliseconds.
func TestShowFeedsMatchesFeedActivity(t *testing.T) {
	renamed := map[string]string{"latencyP50Ns": "latencyP50Ms", "latencyP99Ns": "latencyP99Ms"}
	left := map[string]bool{"partitions": true, "elasticEvents": true}
	var want []string
	typ := reflect.TypeOf(core.FeedActivity{})
	for i := 0; i < typ.NumField(); i++ {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if left[key] {
			continue
		}
		if to, ok := renamed[key]; ok {
			key = to
		}
		want = append(want, key)
	}
	rec := feedActivityRecord(core.FeedActivity{Error: "shown only when set"})
	var got []string
	for i := 0; i < rec.NumFields(); i++ {
		name, _ := rec.FieldAt(i)
		got = append(got, name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Fatalf("show feeds fields %v\nFeedActivity keys %v", got, want)
	}
}
