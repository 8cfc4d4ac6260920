package adm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseScalars(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{`1`, Int64(1)},
		{`-42`, Int64(-42)},
		{`1.5`, Double(1.5)},
		{`-0.25`, Double(-0.25)},
		{`1e3`, Double(1000)},
		{`"hello"`, String("hello")},
		{`""`, String("")},
		{`true`, Boolean(true)},
		{`false`, Boolean(false)},
		{`null`, Null{}},
		{`missing`, Missing{}},
		{`point("33.13,-124.27")`, Point{33.13, -124.27}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !Equal(got, c.want) || got.Tag() != c.want.Tag() {
			t.Errorf("Parse(%q) = %s (%s), want %s (%s)", c.in, got, got.Tag(), c.want, c.want.Tag())
		}
	}
}

func TestParseDatetimeCtor(t *testing.T) {
	v, err := Parse(`datetime("2014-03-01T12:30:45.000Z")`)
	if err != nil {
		t.Fatal(err)
	}
	dt, ok := v.(Datetime)
	if !ok {
		t.Fatalf("got %T, want Datetime", v)
	}
	tm := dt.Time()
	if tm.Year() != 2014 || tm.Month() != 3 || tm.Hour() != 12 || tm.Minute() != 30 {
		t.Fatalf("parsed datetime = %v", tm)
	}
}

func TestParseRecord(t *testing.T) {
	v, err := Parse(`{"id": "t1", "n": 3, "tags": ["#a", "#b"], "loc": point("1,2"), "bag": {{1, 2}}}`)
	if err != nil {
		t.Fatal(err)
	}
	rec := v.(*Record)
	if got, _ := rec.Field("id"); got.(String) != "t1" {
		t.Fatalf("id = %v", got)
	}
	tags, _ := rec.Field("tags")
	if len(tags.(*OrderedList).Items) != 2 {
		t.Fatalf("tags = %v", tags)
	}
	bag, _ := rec.Field("bag")
	if len(bag.(*UnorderedList).Items) != 2 {
		t.Fatalf("bag = %v", bag)
	}
}

func TestParseNestedRecord(t *testing.T) {
	v, err := Parse(`{"user": {"name": "n", "followers_count": 10}, "arr": [{"x": 1}]}`)
	if err != nil {
		t.Fatal(err)
	}
	rec := v.(*Record)
	user, _ := rec.Field("user")
	if name, _ := user.(*Record).Field("name"); name.(String) != "n" {
		t.Fatalf("nested name = %v", name)
	}
}

func TestParseStringEscapes(t *testing.T) {
	v, err := Parse(`"a\"b\\c\ndAé"`)
	if err != nil {
		t.Fatal(err)
	}
	want := "a\"b\\c\ndAé"
	if string(v.(String)) != want {
		t.Fatalf("escape parse = %q, want %q", v.(String), want)
	}
}

func TestParseSurrogatePair(t *testing.T) {
	v, err := Parse(`"😀"`)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.(String)) != "\U0001F600" {
		t.Fatalf("surrogate pair parse = %q", v.(String))
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		``, `{`, `[1,`, `{"a"}`, `{"a":}`, `"unterminated`, `tru`, `nul`,
		`point("abc")`, `point("1")`, `datetime("notadate")`, `1 2`,
		`{"a":1,"a":2}`, `{{1,}`, `[1 2]`, `@`,
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestPropertyPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		text := v.String()
		got, err := Parse(text)
		if err != nil {
			t.Logf("Parse(%q): %v", text, err)
			return false
		}
		if !Equal(got, v) {
			t.Logf("round trip %q -> %s, want %s", text, got, v)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalStringSortsFields(t *testing.T) {
	a := MustRecord([]string{"b", "a"}, []Value{Int64(2), Int64(1)})
	b := MustRecord([]string{"a", "b"}, []Value{Int64(1), Int64(2)})
	if CanonicalString(a) != CanonicalString(b) {
		t.Fatalf("canonical strings differ: %q vs %q", CanonicalString(a), CanonicalString(b))
	}
	if !strings.HasPrefix(CanonicalString(a), `{"a"`) {
		t.Fatalf("canonical string not sorted: %q", CanonicalString(a))
	}
}

func TestParsePointAndDatetimeHelpers(t *testing.T) {
	if _, err := ParsePoint("1,2,3"); err == nil {
		t.Error("ParsePoint accepted three coordinates")
	}
	if _, err := ParsePoint("x,2"); err == nil {
		t.Error("ParsePoint accepted non-numeric x")
	}
	if _, err := ParseDatetime("2020-05-05"); err != nil {
		t.Errorf("ParseDatetime(date-only) failed: %v", err)
	}
}

func BenchmarkParseTweetJSON(b *testing.B) {
	src := `{"id":"t-123","user":{"screen_name":"u1","lang":"en","friends_count":10,"statuses_count":20,"name":"User One","followers_count":30},"latitude":40.1,"longitude":-75.2,"created_at":"2015-01-01","message_text":"loving the #weather in #philly","country":"US"}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
