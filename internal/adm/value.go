package adm

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Value is an ADM runtime value. Implementations are immutable once shared
// across goroutines; the feed runtime copies frames, never individual values.
type Value interface {
	// Tag reports the value's runtime type.
	Tag() TypeTag
	fmt.Stringer
}

// Missing is the ADM MISSING value: the field was not present at all.
type Missing struct{}

// Null is the ADM NULL value: the field was present with an explicit null.
type Null struct{}

// Boolean is an ADM boolean.
type Boolean bool

// Int64 is an ADM 64-bit integer.
type Int64 int64

// Double is an ADM 64-bit IEEE float.
type Double float64

// String is an ADM UTF-8 string.
type String string

// Datetime is an ADM datetime with millisecond precision, stored as
// milliseconds since the Unix epoch (UTC).
type Datetime int64

// Point is an ADM 2-d spatial point.
type Point struct {
	X, Y float64
}

// Rectangle is an ADM axis-aligned rectangle given by its bottom-left and
// top-right corners.
type Rectangle struct {
	Low, High Point
}

// OrderedList is an ADM ordered list.
type OrderedList struct {
	Items []Value
}

// UnorderedList is an ADM unordered list (bag).
type UnorderedList struct {
	Items []Value
}

// Record is an ADM record: an ordered multiset of named fields. Field order
// is preserved for printing but is not semantically significant.
type Record struct {
	fields []field
	index  map[string]int // name -> position; nil up to maxUnindexedFields
}

// field is one named value of a record.
type field struct {
	name  string
	value Value
}

// maxUnindexedFields is the widest record without a name index: up to this
// many fields, a lookup scans the names and NewRecord compares them
// pairwise, which costs less than building a map.
const maxUnindexedFields = 8

// Tag implements Value.
func (Missing) Tag() TypeTag { return TagMissing }

// Tag implements Value.
func (Null) Tag() TypeTag { return TagNull }

// Tag implements Value.
func (Boolean) Tag() TypeTag { return TagBoolean }

// Tag implements Value.
func (Int64) Tag() TypeTag { return TagInt64 }

// Tag implements Value.
func (Double) Tag() TypeTag { return TagDouble }

// Tag implements Value.
func (String) Tag() TypeTag { return TagString }

// Tag implements Value.
func (Datetime) Tag() TypeTag { return TagDatetime }

// Tag implements Value.
func (Point) Tag() TypeTag { return TagPoint }

// Tag implements Value.
func (Rectangle) Tag() TypeTag { return TagRectangle }

// Tag implements Value.
func (*OrderedList) Tag() TypeTag { return TagOrderedList }

// Tag implements Value.
func (*UnorderedList) Tag() TypeTag { return TagUnorderedList }

// Tag implements Value.
func (*Record) Tag() TypeTag { return TagRecord }

// String implements fmt.Stringer.
func (Missing) String() string { return "missing" }

// String implements fmt.Stringer.
func (Null) String() string { return "null" }

// String implements fmt.Stringer.
func (b Boolean) String() string { return strconv.FormatBool(bool(b)) }

// String implements fmt.Stringer.
func (i Int64) String() string { return strconv.FormatInt(int64(i), 10) }

// String implements fmt.Stringer.
func (d Double) String() string { return strconv.FormatFloat(float64(d), 'g', -1, 64) }

// String implements fmt.Stringer.
func (s String) String() string { return strconv.Quote(string(s)) }

// Time converts the datetime to a time.Time in UTC.
func (d Datetime) Time() time.Time { return time.UnixMilli(int64(d)).UTC() }

// DatetimeOf converts a time.Time to a Datetime, truncating to milliseconds.
func DatetimeOf(t time.Time) Datetime { return Datetime(t.UnixMilli()) }

// String implements fmt.Stringer.
func (d Datetime) String() string {
	return fmt.Sprintf("datetime(%q)", d.Time().Format("2006-01-02T15:04:05.000Z"))
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("point(%q)", strconv.FormatFloat(p.X, 'g', -1, 64)+","+strconv.FormatFloat(p.Y, 'g', -1, 64))
}

// String implements fmt.Stringer. The form round-trips through Parse.
func (r Rectangle) String() string {
	return fmt.Sprintf("rectangle(%q)",
		strconv.FormatFloat(r.Low.X, 'g', -1, 64)+","+strconv.FormatFloat(r.Low.Y, 'g', -1, 64)+
			" "+strconv.FormatFloat(r.High.X, 'g', -1, 64)+","+strconv.FormatFloat(r.High.Y, 'g', -1, 64))
}

// Contains reports whether p lies within the rectangle (borders inclusive).
func (r Rectangle) Contains(p Point) bool {
	return p.X >= r.Low.X && p.X <= r.High.X && p.Y >= r.Low.Y && p.Y <= r.High.Y
}

// String implements fmt.Stringer.
func (l *OrderedList) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, it := range l.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteByte(']')
	return b.String()
}

// String implements fmt.Stringer.
func (l *UnorderedList) String() string {
	var b strings.Builder
	b.WriteString("{{")
	for i, it := range l.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString("}}")
	return b.String()
}

// NewRecord constructs a record from parallel name/value slices.
// Duplicate field names are rejected.
func NewRecord(names []string, values []Value) (*Record, error) {
	if len(names) != len(values) {
		return nil, fmt.Errorf("adm: record has %d names but %d values", len(names), len(values))
	}
	fields := make([]field, len(names))
	for i, n := range names {
		fields[i] = field{n, values[i]}
	}
	return newRecord(fields)
}

// newRecord constructs a record that takes ownership of fields.
func newRecord(fields []field) (*Record, error) {
	var idx map[string]int
	if len(fields) > maxUnindexedFields {
		idx = make(map[string]int, len(fields))
	}
	for i, f := range fields {
		dup := false
		if idx == nil {
			for _, g := range fields[:i] {
				if g.name == f.name {
					dup = true
					break
				}
			}
		} else {
			_, dup = idx[f.name]
			idx[f.name] = i
		}
		if dup {
			return nil, fmt.Errorf("adm: duplicate field %q in record", f.name)
		}
		if f.value == nil {
			return nil, fmt.Errorf("adm: nil value for field %q", f.name)
		}
	}
	return &Record{fields: fields, index: idx}, nil
}

// MustRecord is like NewRecord but panics on error.
func MustRecord(names []string, values []Value) *Record {
	return must(NewRecord(names, values))
}

func must(r *Record, err error) *Record {
	if err != nil {
		panic(err)
	}
	return r
}

// RecordBuilder incrementally assembles a Record.
type RecordBuilder struct {
	fields []field
}

// Add appends a field. Returns the builder for chaining.
func (b *RecordBuilder) Add(name string, v Value) *RecordBuilder {
	b.fields = append(b.fields, field{name, v})
	return b
}

// Build constructs the record.
func (b *RecordBuilder) Build() (*Record, error) { return newRecord(b.fields) }

// MustBuild constructs the record, panicking on error.
func (b *RecordBuilder) MustBuild() *Record { return must(b.Build()) }

// fieldIndex returns the position of the named field, and whether it is
// present.
func (r *Record) fieldIndex(name string) (int, bool) {
	if r.index != nil {
		i, ok := r.index[name]
		return i, ok
	}
	for i := range r.fields {
		if r.fields[i].name == name {
			return i, true
		}
	}
	return -1, false
}

// Field returns the value of the named field, and whether it is present.
func (r *Record) Field(name string) (Value, bool) {
	i, ok := r.fieldIndex(name)
	if !ok {
		return Missing{}, false
	}
	return r.fields[i].value, true
}

// FieldOr returns the named field or def if absent.
func (r *Record) FieldOr(name string, def Value) Value {
	if v, ok := r.Field(name); ok {
		return v
	}
	return def
}

// NumFields reports the number of fields.
func (r *Record) NumFields() int { return len(r.fields) }

// FieldAt returns the i-th field's name and value, in insertion order.
func (r *Record) FieldAt(i int) (string, Value) { return r.fields[i].name, r.fields[i].value }

// WithField returns a copy of the record with the named field added or
// replaced. The receiver is unchanged.
func (r *Record) WithField(name string, v Value) *Record {
	fields := make([]field, len(r.fields), len(r.fields)+1)
	copy(fields, r.fields)
	if i, ok := r.fieldIndex(name); ok {
		fields[i].value = v
	} else {
		fields = append(fields, field{name, v})
	}
	return must(newRecord(fields))
}

// WithoutField returns a copy of the record with the named field removed.
func (r *Record) WithoutField(name string) *Record {
	i, ok := r.fieldIndex(name)
	if !ok {
		return r
	}
	return must(newRecord(slices.Delete(slices.Clone(r.fields), i, i+1)))
}

// String implements fmt.Stringer, printing fields in insertion order.
func (r *Record) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range r.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Quote(f.name))
		b.WriteString(": ")
		b.WriteString(f.value.String())
	}
	b.WriteByte('}')
	return b.String()
}

// CanonicalString prints the record with fields sorted by name, recursively;
// useful for deterministic comparison in tests.
func CanonicalString(v Value) string {
	switch t := v.(type) {
	case *Record:
		names := t.sortedNames()
		var b strings.Builder
		b.WriteByte('{')
		for i, n := range names {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Quote(n))
			b.WriteString(": ")
			fv, _ := t.Field(n)
			b.WriteString(CanonicalString(fv))
		}
		b.WriteByte('}')
		return b.String()
	case *OrderedList:
		var b strings.Builder
		b.WriteByte('[')
		for i, it := range t.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(CanonicalString(it))
		}
		b.WriteByte(']')
		return b.String()
	case *UnorderedList:
		parts := make([]string, len(t.Items))
		for i, it := range t.Items {
			parts[i] = CanonicalString(it)
		}
		sort.Strings(parts)
		return "{{" + strings.Join(parts, ", ") + "}}"
	default:
		return v.String()
	}
}

// sortedNames returns the record's field names in a new slice, sorted.
func (r *Record) sortedNames() []string {
	names := make([]string, len(r.fields))
	for i, f := range r.fields {
		names[i] = f.name
	}
	sort.Strings(names)
	return names
}

// Truthy reports whether the value counts as true in a boolean context:
// boolean true, or any non-null, non-missing, non-false value.
func Truthy(v Value) bool {
	switch t := v.(type) {
	case Boolean:
		return bool(t)
	case Null, Missing:
		return false
	default:
		return true
	}
}

// AsDouble extracts a numeric value as float64, with int64→double promotion.
func AsDouble(v Value) (float64, bool) {
	switch t := v.(type) {
	case Double:
		return float64(t), true
	case Int64:
		return float64(t), true
	}
	return 0, false
}

// AsString extracts a string value.
func AsString(v Value) (string, bool) {
	s, ok := v.(String)
	return string(s), ok
}
