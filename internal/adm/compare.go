package adm

import "sort"

// Compare totally orders two ADM values. Values of different type tags order
// by tag (missing < null < boolean < int64/double < string < ...), except
// that int64 and double compare numerically against each other. Within a
// tag, natural ordering applies; records compare field-wise over the union
// of sorted field names, with absent fields ordering first.
func Compare(a, b Value) int {
	at, bt := a.Tag(), b.Tag()
	// Numeric cross-type comparison.
	if isNumeric(at) && isNumeric(bt) {
		af, _ := AsDouble(a)
		bf, _ := AsDouble(b)
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		// Equal numerically: break ties by tag so ordering stays total
		// and consistent with equality (int64 1 != double 1.0 as values,
		// but they compare equal for indexing purposes).
		return 0
	}
	if at != bt {
		if at < bt {
			return -1
		}
		return 1
	}
	switch av := a.(type) {
	case Missing, Null:
		return 0
	case Boolean:
		bv := b.(Boolean)
		switch {
		case !bool(av) && bool(bv):
			return -1
		case bool(av) && !bool(bv):
			return 1
		}
		return 0
	case String:
		bv := b.(String)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case Datetime:
		bv := b.(Datetime)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case Point:
		bv := b.(Point)
		if c := cmpFloat(av.X, bv.X); c != 0 {
			return c
		}
		return cmpFloat(av.Y, bv.Y)
	case Rectangle:
		bv := b.(Rectangle)
		if c := Compare(av.Low, bv.Low); c != 0 {
			return c
		}
		return Compare(av.High, bv.High)
	case *OrderedList:
		bv := b.(*OrderedList)
		return compareLists(av.Items, bv.Items)
	case *UnorderedList:
		bv := b.(*UnorderedList)
		return compareLists(sortedItems(av.Items), sortedItems(bv.Items))
	case *Record:
		bv := b.(*Record)
		return compareRecords(av, bv)
	}
	return 0
}

// Equal reports whether two values compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func isNumeric(t TypeTag) bool { return t == TagInt64 || t == TagDouble }

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareLists(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func sortedItems(items []Value) []Value {
	out := append([]Value(nil), items...)
	sort.SliceStable(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	return out
}

func compareRecords(a, b *Record) int {
	names := map[string]bool{}
	for _, f := range a.fields {
		names[f.name] = true
	}
	for _, f := range b.fields {
		names[f.name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		av, aok := a.Field(n)
		bv, bok := b.Field(n)
		switch {
		case !aok && bok:
			return -1
		case aok && !bok:
			return 1
		case !aok && !bok:
			continue
		}
		if c := Compare(av, bv); c != 0 {
			return c
		}
	}
	return 0
}
