package adm

import (
	"encoding/binary"
	"fmt"
)

// AppendWithField appends to dst the encoding of the record at the front of
// rec with field name set to the value encValue encodes: byte for byte what
// AppendValue(dst, r.WithField(name, v)) appends, where r is the record
// Decode(rec) yields and encValue is AppendValue's encoding of v. A field
// already present keeps its place and takes the new value; otherwise the
// field goes last and the count is rewritten. Like Decode, it ignores bytes
// after the record. It fails, with dst unchanged, exactly when Decode fails —
// with Decode's error — or decodes something other than a record; rec is
// never modified, and may lie in dst's array below len(dst).
//
// SkipValue checks rec, so its bytes are the ones AppendValue writes;
// ScanRecordFields finds the field, and the output is spliced from rec's own
// bytes with encValue copied verbatim, growing dst at most once.
func AppendWithField(dst, rec []byte, name string, encValue []byte) ([]byte, error) {
	n, err := SkipValue(rec)
	if err != nil {
		return dst, err
	}
	if tag := TypeTag(rec[0]); tag != TagRecord {
		return dst, fmt.Errorf("adm: %s value is not a record", tag)
	}
	// rec[:n] is checked, so the walk that finds the field cannot fail.
	rec = rec[:n]
	oldLen := -1 // of the field's present value
	end, _ := ScanRecordFields(rec, func(f, v []byte) bool {
		if string(f) == name {
			oldLen = len(v)
		}
		return oldLen < 0
	})
	if oldLen >= 0 {
		dst = grow(dst, n-oldLen+len(encValue))
		dst = append(dst, rec[:end-oldLen]...)
		dst = append(dst, encValue...)
		return append(dst, rec[end:]...), nil
	}
	cnt, body, _ := containerHeader(rec)
	dst = grow(dst, 1+uvarintLen(cnt+1)+n-body+uvarintLen(uint64(len(name)))+len(name)+len(encValue))
	dst = append(dst, byte(TagRecord))
	dst = binary.AppendUvarint(dst, cnt+1)
	dst = append(dst, rec[body:]...)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	return append(dst, encValue...), nil
}

// grow returns dst with room for n more bytes, in one allocation when it
// must reallocate: exactly n for an empty dst, and at least twice its
// capacity otherwise, as append grows, so a reused scratch stops growing.
// (slices.Grow takes two under the race detector, which turns off the
// compiler's append-of-make rewrite.)
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), max(len(dst)+n, 2*cap(dst)))
	copy(out, dst)
	return out
}
