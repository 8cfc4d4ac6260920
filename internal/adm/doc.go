// Package adm implements the AsterixDB Data Model (ADM): a semi-structured,
// schema-optional data model with open and closed record types, ordered and
// unordered lists, and a set of primitive, spatial, and temporal types.
//
// ADM is the substrate on which every other layer of this repository is
// built: feed adaptors turn external data into serialized ADM records,
// Hyracks frames carry those between operators, and the storage layer
// persists them in LSM components keyed by serialized primary keys.
//
// There is one reader of the textual form. Transcode writes the binary
// encoding straight from the text, without building anything; the
// line-oriented feed adaptors and `load dataset` call it per record, and
// Parse, for callers that want a Value, is DecodeOne of what it writes. The
// recursive-descent parser that used to be Parse is kept in the tests as a
// frozen oracle: FuzzTranscode holds Transcode to it — same verdict, same
// bytes as encoding its Value, same error. Transcode refuses values nested
// deeper than 128 lists and records, because it recurses once per level.
//
// Likewise there are two validators of one contract. Type.Validate checks a
// Value; RecordType.ValidateEncoded checks the encoded bytes and returns what
// DecodeOne followed by Validate would, without decoding — the store's
// per-record check. It falls back to exactly that pair for records wider than
// 64 fields, values nested deeper than 32 levels, and Types it does not know;
// FuzzValidateEncoded compares the two verdicts on arbitrary bytes.
package adm
