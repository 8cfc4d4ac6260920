package storage

import (
	"fmt"
	"strings"
)

// DataError is InsertFrame's refusal of records for their own bytes —
// invalid, malformed or lacking a primary key — not for the environment (WAL
// write, fsync, node state). It names each by its position in the frame,
// with its cause, and the partition is untouched. A refused record is a soft
// failure; an environmental error leaves the records un-acked for replay.
type DataError struct{ Refused []Refusal }

// Refusal names one refused record: its position in the frame, and why.
type Refusal struct {
	Pos int
	Err error
}

func (e *DataError) Error() string {
	msgs := make([]string, len(e.Refused))
	for i, r := range e.Refused {
		msgs[i] = fmt.Sprintf("record %d: %v", r.Pos, r.Err)
	}
	return "storage: refused " + strings.Join(msgs, "; ")
}
