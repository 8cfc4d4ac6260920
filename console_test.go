package asterixfeeds

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestConsoleStatusAndCluster(t *testing.T) {
	inst := startTest(t, "A", "B")
	inst.MustExec(tweetDDL)
	inst.MustExec(`
		create feed F using tweetgen_adaptor ("rate"="2000", "seed"="1");
		connect feed F to dataset Tweets using policy Basic;
	`)
	waitCount(t, inst, "Tweets", 50, 10*time.Second)

	srv := httptest.NewServer(inst.ConsoleHandler())
	defer srv.Close()

	// /admin/status
	resp, err := http.Get(srv.URL + "/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statuses []FeedStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 {
		t.Fatalf("statuses = %+v", statuses)
	}
	st := statuses[0]
	if st.State != "connected" || st.Policy != "Basic" || st.PersistedTotal < 50 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.IntakeNodes) == 0 || len(st.StoreNodes) != 2 {
		t.Fatalf("placements = %+v", st)
	}

	// /admin/cluster
	resp2, err := http.Get(srv.URL + "/admin/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var nodes []struct {
		Name  string `json:"name"`
		Alive bool   `json:"alive"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || !nodes[0].Alive {
		t.Fatalf("cluster = %+v", nodes)
	}
}

func TestConsoleQueryEndpoint(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(tweetDDL)
	srv := httptest.NewServer(inst.ConsoleHandler())
	defer srv.Close()

	body := `use dataverse feeds;
		insert into dataset Tweets ( {"id": "q1",
			"user": {"screen_name":"u","lang":"en","friends_count":1,"statuses_count":1,"name":"n","followers_count":1},
			"created_at": "2015-01-01", "message_text": "hi"} );
		for $t in dataset Tweets return $t.id`
	resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []struct {
			Kind  string `json:"kind"`
			Value any    `json:"value"`
		} `json:"results"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error != "" {
		t.Fatalf("query error: %s", out.Error)
	}
	if len(out.Results) != 3 || out.Results[2].Kind != "query" {
		t.Fatalf("results = %+v", out.Results)
	}
	ids, ok := out.Results[2].Value.([]any)
	if !ok || len(ids) != 1 || ids[0] != "q1" {
		t.Fatalf("query value = %+v", out.Results[2].Value)
	}

	// Errors surface with status 400.
	resp2, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader("not aql at all ((("))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad AQL status = %d", resp2.StatusCode)
	}

	// GET on /query is rejected.
	resp3, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status = %d", resp3.StatusCode)
	}
}

func TestLoadDatasetStatement(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create type U as open { id: string };
		create dataset Users(U) primary key id;`)

	path := filepath.Join(t.TempDir(), "users.adm")
	data := `{"id": "u1", "name": "Alice"}
{"id": "u2", "name": "Bob"}

{"id": "u3"}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	res := inst.MustExec(`use dataverse feeds; load dataset Users from file "` + path + `";`)
	if res[1].Kind != "load" {
		t.Fatalf("result = %+v", res[1])
	}
	n, err := inst.DatasetCount("Users")
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestLoadDatasetErrors(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create type U as open { id: string };
		create dataset Users(U) primary key id;`)
	if _, err := inst.LoadDataset("Nope", "/dev/null"); err == nil {
		t.Error("load into unknown dataset succeeded")
	}
	if _, err := inst.LoadDataset("Users", "/no/such/file.adm"); err == nil {
		t.Error("load from missing file succeeded")
	}
	// A line that does not read, or reads as something other than a record,
	// fails the load by its number; blank lines count.
	for _, c := range []struct{ data, err string }{
		{"{\"id\": \"u1\"}\n\n  {broken\n", "asterixfeeds: load dataset: line 3: adm: offset 1: expected string"},
		{"{\"id\": \"u1\"}\n[{\"id\": \"u2\"}]\n", "asterixfeeds: load dataset: line 2: value is orderedlist, want record"},
	} {
		bad := filepath.Join(t.TempDir(), "bad.adm")
		os.WriteFile(bad, []byte(c.data), 0o644)
		if _, err := inst.LoadDataset("Users", bad); err == nil || err.Error() != c.err {
			t.Errorf("load of %q: err = %v, want %s", c.data, err, c.err)
		}
	}
	// Records violating the primary key are rejected by the insert job.
	noKey := filepath.Join(t.TempDir(), "nokey.adm")
	os.WriteFile(noKey, []byte(`{"name": "no id"}`), 0o644)
	if _, err := inst.LoadDataset("Users", noKey); err == nil {
		t.Error("load without primary key succeeded")
	}
}

func TestFeedConnectedToTwoDatasets(t *testing.T) {
	// §4.4: "a feed may also be simultaneously connected to different
	// datasets"; the second connection reuses the feed's existing joints.
	inst := startTest(t, "A", "B")
	inst.MustExec(tweetDDL)
	inst.MustExec(`
		use dataverse feeds;
		create dataset TweetsCopy(Tweet) primary key id;
		create feed F using tweetgen_adaptor ("rate"="2000", "seed"="2");
		connect feed F to dataset Tweets using policy Basic;
		connect feed F to dataset TweetsCopy using policy Basic;
	`)
	waitCount(t, inst, "Tweets", 50, 10*time.Second)
	waitCount(t, inst, "TweetsCopy", 50, 10*time.Second)
	if len(inst.Feeds().Connections()) != 2 {
		t.Fatalf("connections = %d", len(inst.Feeds().Connections()))
	}
	// Disconnecting one leaves the other flowing.
	inst.MustExec(`disconnect feed F from dataset Tweets;`)
	n, _ := inst.DatasetCount("TweetsCopy")
	waitCount(t, inst, "TweetsCopy", n+20, 10*time.Second)
}

func TestDropStatements(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create type T as open { id: string };
		create dataset D(T) primary key id;
		create feed F using tweetgen_adaptor ("rate"="1000");
		create function fn($x) { $x };
		create ingestion policy P from policy Basic (("memory.budget.records"="10"));
		connect feed F to dataset D using policy P;`)

	// Connected objects are protected.
	if _, err := inst.Exec(`drop dataset D;`); err == nil {
		t.Error("drop of connected dataset succeeded")
	}
	if _, err := inst.Exec(`drop feed F;`); err == nil {
		t.Error("drop of connected feed succeeded")
	}
	inst.MustExec(`disconnect feed F from dataset D;`)

	inst.MustExec(`drop feed F; drop dataset D; drop function fn; drop ingestion policy P;`)
	if _, ok := inst.Catalog().Feed("feeds", "F"); ok {
		t.Error("feed survived drop")
	}
	if _, ok := inst.Catalog().Dataset("feeds", "D"); ok {
		t.Error("dataset survived drop")
	}
	if _, ok := inst.Catalog().Function("feeds", "fn"); ok {
		t.Error("function survived drop")
	}
	if _, ok := inst.Catalog().Policy("P"); ok {
		t.Error("policy survived drop")
	}
	// Builtins and unknowns are protected.
	if _, err := inst.Exec(`drop ingestion policy Basic;`); err == nil {
		t.Error("builtin policy dropped")
	}
	if _, err := inst.Exec(`drop dataset Nope;`); err == nil {
		t.Error("unknown dataset dropped")
	}
}

func TestDropFeedWithChildrenRejected(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create feed P using tweetgen_adaptor ("rate"="10");
		create secondary feed C from feed P;`)
	if _, err := inst.Exec(`drop feed P;`); err == nil {
		t.Error("feed with dependent children dropped")
	}
	inst.MustExec(`drop feed C; drop feed P;`)
}
