package adm

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse parses a textual ADM value. The syntax is JSON extended with the ADM
// constructors the paper's listings use:
//
//	datetime("2014-01-01T00:00:00.000Z")
//	point("33.13,-124.27")
//	{{ ... }}            (unordered lists)
//
// Numbers without a fractional part or exponent parse as int64, otherwise as
// double, matching AsterixDB's literal rules. Parse is DecodeOne of what
// Transcode writes: there is one reader of the textual form, and its verdicts
// and errors are Transcode's.
func Parse(text string) (Value, error) {
	// An encoding is rarely longer than its text (quotes, colons and commas
	// drop out), so a buffer of the text's size is usually one allocation,
	// not a series of appends that double it.
	enc, err := Transcode(make([]byte, 0, len(text)), []byte(text))
	if err != nil {
		return nil, err
	}
	return DecodeOne(enc)
}

// maxNesting bounds how deeply lists and records may nest in textual ADM.
// Transcode recurses once per level, and a feed line may be megabytes of '[':
// without a bound one hostile line overflows the goroutine stack, which no
// recover catches. Nothing deeper ever reaches Decode or SkipValue from a
// feed.
const maxNesting = 128

// ParseDatetime parses an ISO-8601 datetime string into a Datetime.
func ParseDatetime(s string) (Datetime, error) {
	for _, layout := range []string{
		"2006-01-02T15:04:05.000Z07:00",
		time.RFC3339Nano,
		time.RFC3339,
		"2006-01-02T15:04:05",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return DatetimeOf(t), nil
		}
	}
	return 0, fmt.Errorf("adm: invalid datetime %q", s)
}

// ParseRectangle parses a "x1,y1 x2,y2" string into a Rectangle.
func ParseRectangle(s string) (Rectangle, error) {
	parts := strings.Fields(s)
	if len(parts) != 2 {
		return Rectangle{}, fmt.Errorf("adm: invalid rectangle %q", s)
	}
	low, err := ParsePoint(parts[0])
	if err != nil {
		return Rectangle{}, err
	}
	high, err := ParsePoint(parts[1])
	if err != nil {
		return Rectangle{}, err
	}
	return Rectangle{Low: low, High: high}, nil
}

// ParsePoint parses a "x,y" string into a Point.
func ParsePoint(s string) (Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return Point{}, fmt.Errorf("adm: invalid point %q", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return Point{}, fmt.Errorf("adm: invalid point %q: %v", s, err)
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return Point{}, fmt.Errorf("adm: invalid point %q: %v", s, err)
	}
	return Point{x, y}, nil
}
