package aql

import (
	"fmt"
	"math"
	"strings"
	"unicode"

	"asterixfeeds/internal/adm"
)

// builtins are the AQL builtin functions the paper's listings use, plus a
// few standard companions.
var builtins = map[string]func(args []adm.Value) (adm.Value, error){
	"word-tokens":       bWordTokens,
	"starts-with":       bStartsWith,
	"ends-with":         bEndsWith,
	"contains":          bContains,
	"lowercase":         bLowercase,
	"uppercase":         bUppercase,
	"string-length":     bStringLength,
	"string-concat":     bStringConcat,
	"count":             bCount,
	"sum":               bSum,
	"avg":               bAvg,
	"min":               bMin,
	"max":               bMax,
	"len":               bCount,
	"create-point":      bCreatePoint,
	"create-rectangle":  bCreateRectangle,
	"spatial-intersect": bSpatialIntersect,
	"spatial-cell":      bSpatialCell,
	"get-x":             bGetX,
	"get-y":             bGetY,
	"abs":               bAbs,
	"round":             bRound,
	"floor":             bFloor,
	"ceiling":           bCeiling,
	"is-null":           bIsNull,
	"is-missing":        bIsMissing,
	"not-null":          bNotNull,
	"record-merge":      bRecordMerge,
	"field-names":       bFieldNames,
}

// RegisterBuiltin installs an additional builtin function (used by tests
// and extensions). Existing names are replaced.
func RegisterBuiltin(name string, fn func(args []adm.Value) (adm.Value, error)) {
	builtins[name] = fn
}

func argN(name string, args []adm.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("aql: %s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

func strArg(name string, args []adm.Value, i int) (string, error) {
	s, ok := adm.AsString(args[i])
	if !ok {
		return "", fmt.Errorf("aql: %s: argument %d is %s, want string", name, i+1, args[i].Tag())
	}
	return s, nil
}

func numArg(name string, args []adm.Value, i int) (float64, error) {
	f, ok := adm.AsDouble(args[i])
	if !ok {
		return 0, fmt.Errorf("aql: %s: argument %d is %s, want number", name, i+1, args[i].Tag())
	}
	return f, nil
}

// bWordTokens splits a string into lowercase word tokens, keeping '#' and
// '@' prefixes intact (the behaviour the hashtag examples rely on).
func bWordTokens(args []adm.Value) (adm.Value, error) {
	if err := argN("word-tokens", args, 1); err != nil {
		return nil, err
	}
	s, err := strArg("word-tokens", args, 0)
	if err != nil {
		return nil, err
	}
	var items []adm.Value
	for _, tok := range strings.FieldsFunc(s, func(r rune) bool {
		return !(unicode.IsLetter(r) || unicode.IsDigit(r) || r == '#' || r == '@' || r == '_')
	}) {
		if tok != "" {
			items = append(items, adm.String(tok))
		}
	}
	return &adm.OrderedList{Items: items}, nil
}

func bStartsWith(args []adm.Value) (adm.Value, error) {
	if err := argN("starts-with", args, 2); err != nil {
		return nil, err
	}
	s, err := strArg("starts-with", args, 0)
	if err != nil {
		return nil, err
	}
	p, err := strArg("starts-with", args, 1)
	if err != nil {
		return nil, err
	}
	return adm.Boolean(strings.HasPrefix(s, p)), nil
}

func bEndsWith(args []adm.Value) (adm.Value, error) {
	if err := argN("ends-with", args, 2); err != nil {
		return nil, err
	}
	s, err := strArg("ends-with", args, 0)
	if err != nil {
		return nil, err
	}
	p, err := strArg("ends-with", args, 1)
	if err != nil {
		return nil, err
	}
	return adm.Boolean(strings.HasSuffix(s, p)), nil
}

func bContains(args []adm.Value) (adm.Value, error) {
	if err := argN("contains", args, 2); err != nil {
		return nil, err
	}
	s, err := strArg("contains", args, 0)
	if err != nil {
		return nil, err
	}
	sub, err := strArg("contains", args, 1)
	if err != nil {
		return nil, err
	}
	return adm.Boolean(strings.Contains(s, sub)), nil
}

func bLowercase(args []adm.Value) (adm.Value, error) {
	if err := argN("lowercase", args, 1); err != nil {
		return nil, err
	}
	s, err := strArg("lowercase", args, 0)
	if err != nil {
		return nil, err
	}
	return adm.String(strings.ToLower(s)), nil
}

func bUppercase(args []adm.Value) (adm.Value, error) {
	if err := argN("uppercase", args, 1); err != nil {
		return nil, err
	}
	s, err := strArg("uppercase", args, 0)
	if err != nil {
		return nil, err
	}
	return adm.String(strings.ToUpper(s)), nil
}

func bStringLength(args []adm.Value) (adm.Value, error) {
	if err := argN("string-length", args, 1); err != nil {
		return nil, err
	}
	s, err := strArg("string-length", args, 0)
	if err != nil {
		return nil, err
	}
	return adm.Int64(int64(len([]rune(s)))), nil
}

func bStringConcat(args []adm.Value) (adm.Value, error) {
	var b strings.Builder
	for i := range args {
		s, err := strArg("string-concat", args, i)
		if err != nil {
			return nil, err
		}
		b.WriteString(s)
	}
	return adm.String(b.String()), nil
}

func listItems(name string, v adm.Value) ([]adm.Value, error) {
	switch t := v.(type) {
	case *adm.OrderedList:
		return t.Items, nil
	case *adm.UnorderedList:
		return t.Items, nil
	case adm.Null, adm.Missing:
		return nil, nil
	default:
		return nil, fmt.Errorf("aql: %s: argument is %s, want list", name, v.Tag())
	}
}

func bCount(args []adm.Value) (adm.Value, error) {
	if err := argN("count", args, 1); err != nil {
		return nil, err
	}
	items, err := listItems("count", args[0])
	if err != nil {
		return nil, err
	}
	return adm.Int64(int64(len(items))), nil
}

func numericFold(name string, args []adm.Value, fold func(acc, x float64) float64, init float64) (float64, int, error) {
	if err := argN(name, args, 1); err != nil {
		return 0, 0, err
	}
	items, err := listItems(name, args[0])
	if err != nil {
		return 0, 0, err
	}
	acc := init
	n := 0
	for _, it := range items {
		f, ok := adm.AsDouble(it)
		if !ok {
			continue
		}
		if n == 0 && (name == "min" || name == "max") {
			acc = f
		} else {
			acc = fold(acc, f)
		}
		n++
	}
	return acc, n, nil
}

func bSum(args []adm.Value) (adm.Value, error) {
	acc, _, err := numericFold("sum", args, func(a, x float64) float64 { return a + x }, 0)
	if err != nil {
		return nil, err
	}
	return adm.Double(acc), nil
}

func bAvg(args []adm.Value) (adm.Value, error) {
	acc, n, err := numericFold("avg", args, func(a, x float64) float64 { return a + x }, 0)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return adm.Null{}, nil
	}
	return adm.Double(acc / float64(n)), nil
}

func bMin(args []adm.Value) (adm.Value, error) {
	acc, n, err := numericFold("min", args, math.Min, 0)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return adm.Null{}, nil
	}
	return adm.Double(acc), nil
}

func bMax(args []adm.Value) (adm.Value, error) {
	acc, n, err := numericFold("max", args, math.Max, 0)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return adm.Null{}, nil
	}
	return adm.Double(acc), nil
}

func bCreatePoint(args []adm.Value) (adm.Value, error) {
	if err := argN("create-point", args, 2); err != nil {
		return nil, err
	}
	x, err := numArg("create-point", args, 0)
	if err != nil {
		return nil, err
	}
	y, err := numArg("create-point", args, 1)
	if err != nil {
		return nil, err
	}
	return adm.Point{X: x, Y: y}, nil
}

func bCreateRectangle(args []adm.Value) (adm.Value, error) {
	if err := argN("create-rectangle", args, 2); err != nil {
		return nil, err
	}
	low, ok1 := args[0].(adm.Point)
	high, ok2 := args[1].(adm.Point)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("aql: create-rectangle wants two points")
	}
	return adm.Rectangle{Low: low, High: high}, nil
}

func bSpatialIntersect(args []adm.Value) (adm.Value, error) {
	if err := argN("spatial-intersect", args, 2); err != nil {
		return nil, err
	}
	// Supported forms: point x rectangle, rectangle x point.
	if p, ok := args[0].(adm.Point); ok {
		if r, ok := args[1].(adm.Rectangle); ok {
			return adm.Boolean(r.Contains(p)), nil
		}
	}
	if r, ok := args[0].(adm.Rectangle); ok {
		if p, ok := args[1].(adm.Point); ok {
			return adm.Boolean(r.Contains(p)), nil
		}
	}
	if args[0].Tag() == adm.TagNull || args[0].Tag() == adm.TagMissing ||
		args[1].Tag() == adm.TagNull || args[1].Tag() == adm.TagMissing {
		return adm.Boolean(false), nil
	}
	return nil, fmt.Errorf("aql: spatial-intersect on %s and %s", args[0].Tag(), args[1].Tag())
}

// bSpatialCell returns the grid cell (as a rectangle) containing a point,
// given the grid origin and cell increments — the function behind the
// paper's spatial aggregation query (Listing 3.3).
func bSpatialCell(args []adm.Value) (adm.Value, error) {
	if err := argN("spatial-cell", args, 4); err != nil {
		return nil, err
	}
	p, ok := args[0].(adm.Point)
	if !ok {
		return nil, fmt.Errorf("aql: spatial-cell: first argument is %s, want point", args[0].Tag())
	}
	origin, ok := args[1].(adm.Point)
	if !ok {
		return nil, fmt.Errorf("aql: spatial-cell: second argument is %s, want point", args[1].Tag())
	}
	xinc, err := numArg("spatial-cell", args, 2)
	if err != nil {
		return nil, err
	}
	yinc, err := numArg("spatial-cell", args, 3)
	if err != nil {
		return nil, err
	}
	if xinc <= 0 || yinc <= 0 {
		return nil, fmt.Errorf("aql: spatial-cell: increments must be positive")
	}
	cx := math.Floor((p.X - origin.X) / xinc)
	cy := math.Floor((p.Y - origin.Y) / yinc)
	low := adm.Point{X: origin.X + cx*xinc, Y: origin.Y + cy*yinc}
	high := adm.Point{X: low.X + xinc, Y: low.Y + yinc}
	return adm.Rectangle{Low: low, High: high}, nil
}

func bGetX(args []adm.Value) (adm.Value, error) {
	if err := argN("get-x", args, 1); err != nil {
		return nil, err
	}
	p, ok := args[0].(adm.Point)
	if !ok {
		return nil, fmt.Errorf("aql: get-x on %s", args[0].Tag())
	}
	return adm.Double(p.X), nil
}

func bGetY(args []adm.Value) (adm.Value, error) {
	if err := argN("get-y", args, 1); err != nil {
		return nil, err
	}
	p, ok := args[0].(adm.Point)
	if !ok {
		return nil, fmt.Errorf("aql: get-y on %s", args[0].Tag())
	}
	return adm.Double(p.Y), nil
}

func bAbs(args []adm.Value) (adm.Value, error) {
	if err := argN("abs", args, 1); err != nil {
		return nil, err
	}
	f, err := numArg("abs", args, 0)
	if err != nil {
		return nil, err
	}
	if i, ok := args[0].(adm.Int64); ok {
		if i < 0 {
			return adm.Int64(-i), nil
		}
		return i, nil
	}
	return adm.Double(math.Abs(f)), nil
}

func mathFn(name string, f func(float64) float64) func(args []adm.Value) (adm.Value, error) {
	return func(args []adm.Value) (adm.Value, error) {
		if err := argN(name, args, 1); err != nil {
			return nil, err
		}
		x, err := numArg(name, args, 0)
		if err != nil {
			return nil, err
		}
		return adm.Double(f(x)), nil
	}
}

var (
	bRound   = mathFn("round", math.Round)
	bFloor   = mathFn("floor", math.Floor)
	bCeiling = mathFn("ceiling", math.Ceil)
)

func bIsNull(args []adm.Value) (adm.Value, error) {
	if err := argN("is-null", args, 1); err != nil {
		return nil, err
	}
	return adm.Boolean(args[0].Tag() == adm.TagNull), nil
}

func bIsMissing(args []adm.Value) (adm.Value, error) {
	if err := argN("is-missing", args, 1); err != nil {
		return nil, err
	}
	return adm.Boolean(args[0].Tag() == adm.TagMissing), nil
}

func bNotNull(args []adm.Value) (adm.Value, error) {
	if err := argN("not-null", args, 1); err != nil {
		return nil, err
	}
	t := args[0].Tag()
	return adm.Boolean(t != adm.TagNull && t != adm.TagMissing), nil
}

func bRecordMerge(args []adm.Value) (adm.Value, error) {
	if err := argN("record-merge", args, 2); err != nil {
		return nil, err
	}
	a, ok1 := args[0].(*adm.Record)
	b, ok2 := args[1].(*adm.Record)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("aql: record-merge wants two records")
	}
	out := a
	for i := 0; i < b.NumFields(); i++ {
		out = out.WithField(b.FieldAt(i))
	}
	return out, nil
}

func bFieldNames(args []adm.Value) (adm.Value, error) {
	if err := argN("field-names", args, 1); err != nil {
		return nil, err
	}
	rec, ok := args[0].(*adm.Record)
	if !ok {
		return nil, fmt.Errorf("aql: field-names on %s", args[0].Tag())
	}
	items := make([]adm.Value, 0, rec.NumFields())
	for i := 0; i < rec.NumFields(); i++ {
		n, _ := rec.FieldAt(i)
		items = append(items, adm.String(n))
	}
	return &adm.OrderedList{Items: items}, nil
}
