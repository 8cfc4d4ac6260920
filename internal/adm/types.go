package adm

import (
	"fmt"
	"strings"
)

// TypeTag identifies the runtime type of a Value or the category of a Type.
type TypeTag uint8

// The ADM type tags. The numeric values participate in the binary format
// (see binary.go) and in cross-type ordering, so they must remain stable.
const (
	TagMissing TypeTag = iota
	TagNull
	TagBoolean
	TagInt64
	TagDouble
	TagString
	TagDatetime
	TagPoint
	TagRectangle
	TagOrderedList
	TagUnorderedList
	TagRecord
)

// String returns the AQL name of the type tag.
func (t TypeTag) String() string {
	switch t {
	case TagMissing:
		return "missing"
	case TagNull:
		return "null"
	case TagBoolean:
		return "boolean"
	case TagInt64:
		return "int64"
	case TagDouble:
		return "double"
	case TagString:
		return "string"
	case TagDatetime:
		return "datetime"
	case TagPoint:
		return "point"
	case TagRectangle:
		return "rectangle"
	case TagOrderedList:
		return "orderedlist"
	case TagUnorderedList:
		return "unorderedlist"
	case TagRecord:
		return "record"
	default:
		return fmt.Sprintf("tag(%d)", uint8(t))
	}
}

// Type describes an ADM type: either a primitive, a list type, or a record
// type. Types are immutable after construction.
type Type interface {
	// Tag reports the type's category.
	Tag() TypeTag
	// Name reports the type's name; anonymous types report a structural name.
	Name() string
	// Validate reports whether v conforms to the type.
	Validate(v Value) error
	fmt.Stringer
	// sealed keeps the implementations to this package's four, the ones
	// the record walk of ValidateFields knows.
	sealed()
}

// PrimitiveType is the Type of scalars such as string, int64 and point.
type PrimitiveType struct {
	tag TypeTag
}

// Builtin primitive types, usable wherever a Type is required.
var (
	TBoolean   = &PrimitiveType{TagBoolean}
	TInt64     = &PrimitiveType{TagInt64}
	TDouble    = &PrimitiveType{TagDouble}
	TString    = &PrimitiveType{TagString}
	TDatetime  = &PrimitiveType{TagDatetime}
	TPoint     = &PrimitiveType{TagPoint}
	TRectangle = &PrimitiveType{TagRectangle}
	TNull      = &PrimitiveType{TagNull}
	TMissing   = &PrimitiveType{TagMissing}
)

// PrimitiveFor returns the builtin primitive Type for tag, or nil if tag does
// not denote a primitive.
func PrimitiveFor(tag TypeTag) *PrimitiveType {
	switch tag {
	case TagBoolean:
		return TBoolean
	case TagInt64:
		return TInt64
	case TagDouble:
		return TDouble
	case TagString:
		return TString
	case TagDatetime:
		return TDatetime
	case TagPoint:
		return TPoint
	case TagRectangle:
		return TRectangle
	case TagNull:
		return TNull
	case TagMissing:
		return TMissing
	}
	return nil
}

func (*PrimitiveType) sealed() {}

// Tag implements Type.
func (p *PrimitiveType) Tag() TypeTag { return p.tag }

// Name implements Type.
func (p *PrimitiveType) Name() string { return p.tag.String() }

// String implements fmt.Stringer.
func (p *PrimitiveType) String() string { return p.Name() }

// Validate implements Type. A numeric promotion from int64 to double is
// accepted, mirroring AsterixDB's implicit cast on load.
func (p *PrimitiveType) Validate(v Value) error {
	if v == nil {
		return fmt.Errorf("adm: nil value for type %s", p.Name())
	}
	if v.Tag() == p.tag {
		return nil
	}
	if p.tag == TagDouble && v.Tag() == TagInt64 {
		return nil
	}
	return fmt.Errorf("adm: value of type %s does not conform to %s", v.Tag(), p.Name())
}

// Field describes one field of a record type.
type Field struct {
	// Name is the field name.
	Name string
	// Type is the declared field type.
	Type Type
	// Optional marks the field as nullable/omittable (declared with `?`).
	Optional bool
}

// RecordType describes an ADM record type. An open record type admits extra
// fields beyond those declared; a closed type does not.
type RecordType struct {
	name   string
	open   bool
	fields []Field
	index  map[string]int
}

// NewRecordType constructs a record type. Field names must be unique.
func NewRecordType(name string, open bool, fields []Field) (*RecordType, error) {
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("adm: record type %q has an unnamed field", name)
		}
		if f.Type == nil {
			return nil, fmt.Errorf("adm: field %q of record type %q has no type", f.Name, name)
		}
		if _, dup := idx[f.Name]; dup {
			return nil, fmt.Errorf("adm: duplicate field %q in record type %q", f.Name, name)
		}
		idx[f.Name] = i
	}
	return &RecordType{name: name, open: open, fields: append([]Field(nil), fields...), index: idx}, nil
}

// MustRecordType is like NewRecordType but panics on error. Intended for
// statically known types in tests and examples.
func MustRecordType(name string, open bool, fields []Field) *RecordType {
	rt, err := NewRecordType(name, open, fields)
	if err != nil {
		panic(err)
	}
	return rt
}

func (*RecordType) sealed() {}

// Tag implements Type.
func (r *RecordType) Tag() TypeTag { return TagRecord }

// Name implements Type.
func (r *RecordType) Name() string {
	if r.name != "" {
		return r.name
	}
	return r.structuralName()
}

// Open reports whether the record type admits undeclared fields.
func (r *RecordType) Open() bool { return r.open }

// Fields returns the declared fields in declaration order. The returned
// slice must not be modified.
func (r *RecordType) Fields() []Field { return r.fields }

// Field returns the declared field named name.
func (r *RecordType) Field(name string) (Field, bool) {
	i, ok := r.index[name]
	if !ok {
		return Field{}, false
	}
	return r.fields[i], true
}

func (r *RecordType) structuralName() string {
	var b strings.Builder
	if r.open {
		b.WriteString("open{")
	} else {
		b.WriteString("closed{")
	}
	for i, f := range r.fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Name)
		b.WriteByte(':')
		b.WriteString(f.Type.Name())
		if f.Optional {
			b.WriteByte('?')
		}
	}
	b.WriteByte('}')
	return b.String()
}

// String implements fmt.Stringer.
func (r *RecordType) String() string { return r.structuralName() }

// Validate implements Type: every declared non-optional field must be present
// and conform; undeclared fields are rejected unless the type is open.
func (r *RecordType) Validate(v Value) error {
	rec, ok := v.(*Record)
	if !ok {
		return fmt.Errorf("adm: value of type %s does not conform to record type %s", v.Tag(), r.Name())
	}
	for _, f := range r.fields {
		fv, present := rec.Field(f.Name)
		if !present || fv.Tag() == TagMissing {
			if f.Optional {
				continue
			}
			return fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
		}
		if fv.Tag() == TagNull {
			if f.Optional {
				continue
			}
			return fmt.Errorf("adm: null value for non-optional field %q of type %s", f.Name, r.Name())
		}
		if err := f.Type.Validate(fv); err != nil {
			return fmt.Errorf("adm: field %q: %w", f.Name, err)
		}
	}
	if !r.open {
		for _, f := range rec.fields {
			if _, declared := r.index[f.name]; !declared {
				return fmt.Errorf("adm: undeclared field %q in closed type %s", f.name, r.Name())
			}
		}
	}
	return nil
}

// OrderedListType describes a homogeneous ordered list (AQL: [T]).
type OrderedListType struct {
	// Item is the element type.
	Item Type
}

func (*OrderedListType) sealed() {}

// Tag implements Type.
func (l *OrderedListType) Tag() TypeTag { return TagOrderedList }

// Name implements Type.
func (l *OrderedListType) Name() string { return "[" + l.Item.Name() + "]" }

// String implements fmt.Stringer.
func (l *OrderedListType) String() string { return l.Name() }

// Validate implements Type.
func (l *OrderedListType) Validate(v Value) error {
	lst, ok := v.(*OrderedList)
	if !ok {
		return fmt.Errorf("adm: value of type %s does not conform to %s", v.Tag(), l.Name())
	}
	for i, item := range lst.Items {
		if err := l.Item.Validate(item); err != nil {
			return fmt.Errorf("adm: list item %d: %w", i, err)
		}
	}
	return nil
}

// UnorderedListType describes a homogeneous unordered list (AQL: {{T}}).
type UnorderedListType struct {
	// Item is the element type.
	Item Type
}

func (*UnorderedListType) sealed() {}

// Tag implements Type.
func (l *UnorderedListType) Tag() TypeTag { return TagUnorderedList }

// Name implements Type.
func (l *UnorderedListType) Name() string { return "{{" + l.Item.Name() + "}}" }

// String implements fmt.Stringer.
func (l *UnorderedListType) String() string { return l.Name() }

// Validate implements Type.
func (l *UnorderedListType) Validate(v Value) error {
	lst, ok := v.(*UnorderedList)
	if !ok {
		return fmt.Errorf("adm: value of type %s does not conform to %s", v.Tag(), l.Name())
	}
	for i, item := range lst.Items {
		if err := l.Item.Validate(item); err != nil {
			return fmt.Errorf("adm: bag item %d: %w", i, err)
		}
	}
	return nil
}
