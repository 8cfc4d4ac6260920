// Package adm implements the AsterixDB Data Model (ADM): a semi-structured,
// schema-optional data model with open and closed record types, ordered and
// unordered lists, and a set of primitive, spatial, and temporal types.
//
// ADM is the substrate on which every other layer of this repository is
// built: feed adaptors turn external data into serialized ADM records,
// Hyracks frames carry those between operators, and the storage layer
// persists them in LSM components keyed by serialized primary keys.
//
// There are two readers of the textual form. Parse builds a Value and is the
// entry for AQL literals, `load dataset`, the REPL and tests. Transcode
// writes the binary encoding straight from the text, without building
// anything, and is what the line-oriented feed adaptors call per record; it
// appends exactly AppendValue(dst, Parse(text)) and fails exactly when Parse
// fails, with the same error — FuzzTranscode holds it to that, with Parse as
// the oracle. Its one fallback: a record with more than 64 fields is handed,
// whole input, to Parse + AppendValue. Both refuse values nested deeper than
// 128 lists and records, because both recurse once per level.
//
// Likewise there are two validators of one contract. Type.Validate checks a
// Value; RecordType.ValidateEncoded checks the encoded bytes and returns what
// DecodeOne followed by Validate would, without decoding — the store's
// per-record check. It falls back to exactly that pair for records wider than
// 64 fields, values nested deeper than 32 levels, and Types it does not know;
// FuzzValidateEncoded compares the two verdicts on arbitrary bytes.
package adm
