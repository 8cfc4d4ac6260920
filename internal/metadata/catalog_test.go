package metadata

import (
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/storage"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	if err := c.CreateDataverse("feeds"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuiltinPoliciesPresent(t *testing.T) {
	c := testCatalog(t)
	for _, name := range []string{"Basic", "Spill", "Discard", "Throttle", "Elastic", "FaultTolerant", "AtLeastOnce"} {
		p, ok := c.Policy(name)
		if !ok {
			t.Fatalf("builtin policy %s missing", name)
		}
		if p.Name != name {
			t.Fatalf("policy name = %q", p.Name)
		}
	}
	if _, ok := c.Policy("Nope"); ok {
		t.Fatal("unknown policy resolved")
	}
}

func TestPolicySemantics(t *testing.T) {
	c := testCatalog(t)
	spill, _ := c.Policy("Spill")
	if !spill.Bool(ParamSpill, false) || spill.Bool(ParamDiscard, false) {
		t.Fatal("Spill policy parameters wrong")
	}
	discard, _ := c.Policy("Discard")
	if !discard.Bool(ParamDiscard, false) {
		t.Fatal("Discard policy parameters wrong")
	}
	basic, _ := c.Policy("Basic")
	if !basic.Bool(ParamRecoverSoft, false) || !basic.Bool(ParamRecoverHard, false) {
		t.Fatal("Basic policy should recover from failures by default")
	}
}

func TestCustomPolicyFromBuiltin(t *testing.T) {
	// Listing 4.6: Spill_then_Throttle extends Spill overriding parameters.
	c := testCatalog(t)
	spill, _ := c.Policy("Spill")
	custom := spill.Clone("Spill_then_Throttle")
	custom.Params[ParamMaxSpillSize] = "512MB"
	custom.Params[ParamThrottle] = "true"
	if err := c.CreatePolicy(custom); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Policy("Spill_then_Throttle")
	if !ok {
		t.Fatal("custom policy not stored")
	}
	if !got.Bool(ParamSpill, false) || !got.Bool(ParamThrottle, false) {
		t.Fatal("custom policy lost inherited or overridden params")
	}
	if got.Param(ParamMaxSpillSize, "") != "512MB" {
		t.Fatal("custom policy lost max spill size")
	}
	// The base must be unmodified.
	if spill.Bool(ParamThrottle, false) {
		t.Fatal("Clone mutated the base policy")
	}
	if err := c.CreatePolicy(custom); err == nil {
		t.Fatal("duplicate policy accepted")
	}
}

func TestTypeResolution(t *testing.T) {
	c := testCatalog(t)
	rt := adm.MustRecordType("Tweet", true, []adm.Field{{Name: "id", Type: adm.TString}})
	if err := c.CreateType("feeds", "Tweet", rt); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Type("feeds", "Tweet")
	if !ok || got != rt {
		t.Fatal("stored type not resolved")
	}
	if err := c.CreateType("feeds", "Tweet", rt); err == nil {
		t.Fatal("duplicate type accepted")
	}
	// Builtin primitives resolve in any dataverse.
	for _, name := range []string{"string", "int64", "int32", "double", "boolean", "datetime", "point", "rectangle"} {
		if _, ok := c.Type("feeds", name); !ok {
			t.Fatalf("builtin type %s not resolved", name)
		}
	}
	if _, ok := c.Type("feeds", "NoSuch"); ok {
		t.Fatal("unknown type resolved")
	}
}

func declDataset(t *testing.T, c *Catalog, name string) *storage.Dataset {
	t.Helper()
	rt := adm.MustRecordType(name+"Type", true, []adm.Field{{Name: "id", Type: adm.TString}})
	ds := &storage.Dataset{
		Dataverse: "feeds", Name: name, Type: rt,
		PrimaryKey: []string{"id"}, NodeGroup: []string{"A"},
	}
	if err := c.CreateDataset(ds); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetAndIndexLifecycle(t *testing.T) {
	c := testCatalog(t)
	ds := declDataset(t, c, "Tweets")
	got, ok := c.Dataset("feeds", "Tweets")
	if !ok || got != ds {
		t.Fatal("dataset not resolved")
	}
	if err := c.CreateDataset(ds); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
	if err := c.AddIndex("feeds", "Tweets", storage.IndexDecl{Name: "i1", Field: "id", Kind: storage.BTree}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex("feeds", "Tweets", storage.IndexDecl{Name: "i1", Field: "id", Kind: storage.BTree}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if err := c.AddIndex("feeds", "NoSuch", storage.IndexDecl{Name: "i2"}); err == nil {
		t.Fatal("index on unknown dataset accepted")
	}
	if _, ok := got.Index("i1"); !ok {
		t.Fatal("AddIndex did not attach to dataset")
	}
}

func TestFeedLineage(t *testing.T) {
	c := testCatalog(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "TwitterFeed", Primary: true, AdaptorName: "tweetgen"}))
	must(c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "ProcessedTwitterFeed", SourceFeed: "TwitterFeed", Function: "addHashTags"}))
	must(c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "SentimentFeed", SourceFeed: "ProcessedTwitterFeed", Function: "tweetlib#sentimentAnalysis"}))

	chain, err := c.FeedLineage("feeds", "SentimentFeed")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("lineage length = %d, want 3", len(chain))
	}
	if chain[0].Name != "SentimentFeed" || chain[2].Name != "TwitterFeed" || !chain[2].Primary {
		t.Fatalf("lineage = %v %v %v", chain[0].Name, chain[1].Name, chain[2].Name)
	}
}

func TestSecondaryFeedRequiresParent(t *testing.T) {
	c := testCatalog(t)
	err := c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "Orphan", SourceFeed: "NoParent"})
	if err == nil {
		t.Fatal("secondary feed without parent accepted")
	}
}

func TestDuplicateFeedRejected(t *testing.T) {
	c := testCatalog(t)
	f := &FeedDecl{Dataverse: "feeds", Name: "F", Primary: true, AdaptorName: "x"}
	if err := c.CreateFeed(f); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateFeed(f); err == nil {
		t.Fatal("duplicate feed accepted")
	}
}

func TestFunctions(t *testing.T) {
	c := testCatalog(t)
	fn := &FunctionDecl{
		Dataverse: "feeds", Name: "addHashTags", Kind: AQLFunction,
		Params: []string{"$x"}, Body: "$x",
	}
	if err := c.CreateFunction(fn); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Function("feeds", "addHashTags")
	if !ok || got.Body != "$x" {
		t.Fatal("function not resolved")
	}
	if err := c.CreateFunction(fn); err == nil {
		t.Fatal("duplicate function accepted")
	}
	ext := &FunctionDecl{Dataverse: "feeds", Name: "tweetlib#sentimentAnalysis", Kind: ExternalFunction}
	if err := c.CreateFunction(ext); err != nil {
		t.Fatal(err)
	}
}

func TestListings(t *testing.T) {
	c := testCatalog(t)
	declDataset(t, c, "B")
	declDataset(t, c, "A")
	names := []string{}
	for _, ds := range c.Datasets() {
		names = append(names, ds.Name)
	}
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("Datasets() order = %v", names)
	}
	c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "Z", Primary: true})
	c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "M", Primary: true})
	feeds := c.Feeds()
	if len(feeds) != 2 || feeds[0].Name != "M" {
		t.Fatalf("Feeds() order = %v", feeds)
	}
}

func TestFeedLineageCycleDetected(t *testing.T) {
	c := testCatalog(t)
	// Manufacture a cycle by editing the map directly (cannot be created
	// through the API).
	c.feeds["feeds.X"] = &FeedDecl{Dataverse: "feeds", Name: "X", SourceFeed: "Y"}
	c.feeds["feeds.Y"] = &FeedDecl{Dataverse: "feeds", Name: "Y", SourceFeed: "X"}
	if _, err := c.FeedLineage("feeds", "X"); err == nil {
		t.Fatal("lineage cycle not detected")
	}
}

func TestCatalogMarshalRoundTrip(t *testing.T) {
	c := testCatalog(t)
	user := adm.MustRecordType("TwitterUser", true, []adm.Field{
		{Name: "name", Type: adm.TString},
	})
	if err := c.CreateType("feeds", "TwitterUser", user); err != nil {
		t.Fatal(err)
	}
	tweet := adm.MustRecordType("Tweet", false, []adm.Field{
		{Name: "id", Type: adm.TString},
		{Name: "user", Type: user},
		{Name: "topics", Type: &adm.OrderedListType{Item: adm.TString}},
		{Name: "loc", Type: adm.TPoint, Optional: true},
	})
	if err := c.CreateType("feeds", "Tweet", tweet); err != nil {
		t.Fatal(err)
	}
	ds := &storage.Dataset{
		Dataverse: "feeds", Name: "Tweets", Type: tweet,
		PrimaryKey: []string{"id"}, NodeGroup: []string{"A", "B"},
		Indexes:    []storage.IndexDecl{{Name: "locIdx", Field: "loc", Kind: storage.RTree}},
		Replicated: true,
	}
	if err := c.CreateDataset(ds); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "P", Primary: true,
		AdaptorName: "socket_adaptor", AdaptorConfig: map[string]string{"sockets": "h:1"}}))
	must(c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "S", SourceFeed: "P", Function: "fn"}))
	must(c.CreateFunction(&FunctionDecl{Dataverse: "feeds", Name: "fn", Kind: AQLFunction,
		Params: []string{"$x"}, Body: "$x"}))
	custom := (&PolicyDecl{Name: "Custom", Params: map[string]string{ParamSpill: "true"}})
	must(c.CreatePolicy(custom))

	img, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	re, err := LoadCatalog(img)
	if err != nil {
		t.Fatal(err)
	}

	// Types, including cross-references and list/optional fields.
	tv, ok := re.Type("feeds", "Tweet")
	if !ok {
		t.Fatal("Tweet type lost")
	}
	rt := tv.(*adm.RecordType)
	if rt.Open() {
		t.Fatal("closed type reloaded as open")
	}
	userField, _ := rt.Field("user")
	if userField.Type.Name() != "TwitterUser" {
		t.Fatalf("user field type = %s", userField.Type.Name())
	}
	topicsField, _ := rt.Field("topics")
	if _, isList := topicsField.Type.(*adm.OrderedListType); !isList {
		t.Fatal("list field type lost")
	}
	locField, _ := rt.Field("loc")
	if !locField.Optional {
		t.Fatal("optional flag lost")
	}

	// Dataset with indexes/replication/nodegroup.
	rds, ok := re.Dataset("feeds", "Tweets")
	if !ok || !rds.Replicated || len(rds.NodeGroup) != 2 {
		t.Fatalf("dataset reloaded wrong: %+v", rds)
	}
	if ix, ok := rds.Index("locIdx"); !ok || ix.Kind != storage.RTree {
		t.Fatal("index declaration lost")
	}

	// Feeds with lineage, functions, policies.
	if _, err := re.FeedLineage("feeds", "S"); err != nil {
		t.Fatalf("feed lineage lost: %v", err)
	}
	p, _ := re.Feed("feeds", "P")
	if p.AdaptorConfig["sockets"] != "h:1" {
		t.Fatal("adaptor config lost")
	}
	if _, ok := re.Function("feeds", "fn"); !ok {
		t.Fatal("function lost")
	}
	rp, ok := re.Policy("Custom")
	if !ok || !rp.Bool(ParamSpill, false) {
		t.Fatal("custom policy lost")
	}
	// Builtins are re-created, not duplicated.
	if _, ok := re.Policy("Basic"); !ok {
		t.Fatal("builtin policy missing after reload")
	}
}

func TestLoadCatalogRejectsGarbage(t *testing.T) {
	if _, err := LoadCatalog([]byte("not adm")); err == nil {
		t.Fatal("garbage image loaded")
	}
	if _, err := LoadCatalog(adm.Encode(adm.Int64(5))); err == nil {
		t.Fatal("non-record image loaded")
	}
}

func TestDropOperations(t *testing.T) {
	c := testCatalog(t)
	declDataset(t, c, "D")
	if err := c.DropDataset("feeds", "D"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropDataset("feeds", "D"); err == nil {
		t.Fatal("double drop succeeded")
	}
	c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "P", Primary: true})
	c.CreateFeed(&FeedDecl{Dataverse: "feeds", Name: "S", SourceFeed: "P"})
	if err := c.DropFeed("feeds", "P"); err == nil {
		t.Fatal("feed with children dropped")
	}
	if err := c.DropFeed("feeds", "S"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropFeed("feeds", "P"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropPolicy("Basic"); err == nil {
		t.Fatal("builtin policy dropped")
	}
	c.CreateFunction(&FunctionDecl{Dataverse: "feeds", Name: "f", Kind: AQLFunction, Params: []string{"$x"}, Body: "$x"})
	if err := c.DropFunction("feeds", "f"); err != nil {
		t.Fatal(err)
	}
}
