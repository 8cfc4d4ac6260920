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
// The binary form has one checker too. SkipValue accepts exactly the bytes
// AppendValue writes — minimal varints, booleans 0 or 1, no field name twice
// in any record — and Decode, DecodeOne, HashEncoded and AppendWithField
// take its verdict and its errors. There are two validators of one type
// contract: Type.Validate checks a Value; RecordType.ValidateFields checks
// the encoded bytes and returns what DecodeOne followed by Validate would,
// without decoding — the store's per-record check. It is SkipValue's record
// walk given the type: each nested record or list is checked against its
// declared type in the descent that skips it, and the top-level fields are
// handed to a callback on the way, so the store walks a record once.
// ValidateEncoded is ValidateFields without the callback. FuzzSkipValue and
// FuzzValidateEncoded hold them to Decode on arbitrary bytes, and the fuzz
// target holds ValidateFields to the two-walk validator it replaced, kept in
// the tests as a frozen oracle: same verdict, same error text, and the
// fields ScanRecordFields hands over.
//
// A decode walks its value twice: the check walk, which also counts the
// value's records, fields and list items, and one unchecked build. The
// build cuts every field name and String from one copy of the bytes, every
// record from one slab and every field and list item from one more, each cut
// to its own length so that no append reaches a sibling; a TweetGen record
// costs the copy, two slabs and its scalar boxes. FuzzDecodeOne holds
// DecodeOne and Decode to the per-record decoder they replaced, kept in the
// tests as a frozen oracle: same verdict, same error text, an Equal value.
package adm
