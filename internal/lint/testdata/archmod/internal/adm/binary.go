package adm

var errValidateFallback error

func conforms() {}

func decode() {}

func checkOne() error { return nil }

// Decode checks through checkOne.
func Decode() error { return checkOne() }

// RecordType is the fixture record type.
type RecordType struct{}

// ValidateEncoded is a second walk over a stored record.
func (*RecordType) ValidateEncoded([]byte) error { return nil }
