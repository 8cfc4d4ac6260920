package adm

import "fmt"

// validateOracle is RecordType.ValidateEncoded as it was before the type
// rules joined SkipValue's walk: the bytes checked by one walk, the type
// rules applied by a second over the checked bytes, a nested record or list
// walked once more for each. It is frozen here as the independent reference
// FuzzValidateEncoded holds ValidateFields to — same verdict, same error
// text — and shares only ScanRecordFields, SkipValue and containerHeader,
// the byte checks, with the walker. Edit it only to change a type rule or an
// error text on purpose, in the same commit as the walker.
func validateOracle(r *RecordType, buf []byte) error {
	if len(buf) == 0 || TypeTag(buf[0]) != TagRecord {
		if err := checkOne(buf); err != nil {
			return err
		}
		return conformsOracle(r, buf)
	}
	n, err, typeErr := scanConformingOracle(r, buf)
	if err == nil {
		err = trailing(buf, n)
	}
	if err != nil {
		return err
	}
	return typeErr
}

// conformsOracle is t.Validate on enc, a value SkipValue accepted, without
// decoding it.
func conformsOracle(t Type, enc []byte) error {
	tag := TypeTag(enc[0])
	var item Type
	var listTag TypeTag
	var what string
	switch tt := t.(type) {
	case *PrimitiveType:
		if tag != tt.tag && !(tt.tag == TagDouble && tag == TagInt64) {
			return fmt.Errorf("adm: value of type %s does not conform to %s", tag, tt.Name())
		}
		return nil
	case *RecordType:
		if tag != TagRecord {
			return fmt.Errorf("adm: value of type %s does not conform to record type %s", tag, tt.Name())
		}
		_, _, typeErr := scanConformingOracle(tt, enc) // enc is checked: no other error
		return typeErr
	case *OrderedListType:
		item, listTag, what = tt.Item, TagOrderedList, "list item"
	case *UnorderedListType:
		item, listTag, what = tt.Item, TagUnorderedList, "bag item"
	}
	// Type is sealed: t is one of the two list types.
	if tag != listTag {
		return fmt.Errorf("adm: value of type %s does not conform to %s", tag, t.Name())
	}
	// enc is checked, so neither the header nor an item can fail.
	cnt, pos, _ := containerHeader(enc)
	for i := uint64(0); i < cnt; i++ {
		used, _ := SkipValue(enc[pos:])
		if err := conformsOracle(item, enc[pos:pos+used]); err != nil {
			return fmt.Errorf("adm: %s %d: %w", what, i, err)
		}
		pos += used
	}
	return nil
}

// scanConformingOracle is ScanRecordFields on the record enc, returning its
// length and error, with r.Validate's verdict on each field it hands over:
// typeErr is the first field that does not conform, or else the first
// required field that is absent.
func scanConformingOracle(r *RecordType, enc []byte) (n int, err, typeErr error) {
	seen := make([]bool, len(r.fields))
	n, err = ScanRecordFields(enc, func(name, encValue []byte) bool {
		if typeErr == nil {
			typeErr = conformsFieldOracle(r, name, encValue, seen)
		}
		return true
	})
	for i := 0; typeErr == nil && i < len(r.fields); i++ {
		if f := &r.fields[i]; !seen[i] && !f.Optional {
			typeErr = fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
		}
	}
	return n, err, typeErr
}

// conformsFieldOracle is r.Validate's rule for one field of a record,
// marking in seen the declared field it is.
func conformsFieldOracle(r *RecordType, name, encValue []byte, seen []bool) error {
	idx, declared := r.index[string(name)]
	if !declared {
		if !r.open {
			return fmt.Errorf("adm: undeclared field %q in closed type %s", name, r.Name())
		}
		return nil
	}
	seen[idx] = true
	f := &r.fields[idx]
	switch TypeTag(encValue[0]) {
	case TagMissing:
		if !f.Optional {
			return fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
		}
		return nil
	case TagNull:
		if !f.Optional {
			return fmt.Errorf("adm: null value for non-optional field %q of type %s", f.Name, r.Name())
		}
		return nil
	}
	if err := conformsOracle(f.Type, encValue); err != nil {
		return fmt.Errorf("adm: field %q: %w", f.Name, err)
	}
	return nil
}
