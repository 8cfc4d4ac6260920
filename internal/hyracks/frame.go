package hyracks

// Frame is the unit of data exchange between operator tasks: a batch of
// serialized ADM records. Frames are never mutated after being handed to a
// Writer; operators that need to modify records build new frames.
type Frame struct {
	// Records holds one serialized record per entry.
	Records [][]byte
	// IDs is the per-record metadata column: the at-least-once tracking id
	// of each record. It is empty for an untracked frame; otherwise
	// len(IDs) == len(Records) and IDs[i] belongs to Records[i]. Connectors
	// check that invariant and keep each (id, record) pair together;
	// operators may rely on it.
	IDs []uint64
}

// NewFrame returns a frame pre-sized for n records.
func NewFrame(n int) *Frame {
	return &Frame{Records: make([][]byte, 0, n)}
}

// GetFrame is NewFrame and PutFrame does nothing: frames are garbage-
// collected. The pair outlived the header pool it named only because the
// benchmark's replay calls it.
func GetFrame(n int) *Frame { return NewFrame(n) }

// PutFrame does nothing; see GetFrame.
func PutFrame(*Frame) {}

// Append adds a serialized record to the frame.
func (f *Frame) Append(rec []byte) { f.Records = append(f.Records, rec) }

// Len reports the number of records in the frame.
func (f *Frame) Len() int { return len(f.Records) }

// Bytes reports the total payload size of the frame in bytes: the records
// plus 8 bytes per tracking id.
func (f *Frame) Bytes() int {
	n := 8 * len(f.IDs)
	for _, r := range f.Records {
		n += len(r)
	}
	return n
}

// FrameAppender stages the records of one frame back to back in a scratch
// buffer it reuses, as Hyracks' frame tuple appender serializes tuples into a
// frame's bytes. Take hands out the staged records in exact-size
// allocations and starts the next frame in the same scratch, so a stage pays
// for allocation once per frame, not once per record, and no buffer ever
// holds the records of two frames: a retained record pins only its own
// frame's bytes, which Frame.Bytes counts.
type FrameAppender struct {
	// Buf holds the staged records. A stage appends one record's bytes to
	// it and then calls End; bytes appended since the last End that should
	// not be a record are cut off with Buf = Buf[:n].
	Buf  []byte
	ends []int // ends[i] is where staged record i ends in Buf
}

// End closes the record appended to Buf since the last End.
func (a *FrameAppender) End() { a.ends = append(a.ends, len(a.Buf)) }

// Append stages a copy of rec as the next record.
func (a *FrameAppender) Append(rec []byte) {
	a.Buf = append(a.Buf, rec...)
	a.End()
}

// Len reports the number of records staged.
func (a *FrameAppender) Len() int { return len(a.ends) }

// smallObjectBytes is the Go runtime's largest size class. A larger
// allocation is rounded up to whole 8 KiB pages: a full frame of 128
// flood-sized records (≈ 50 KiB) in one buffer wasted more than the
// per-record copies it replaced.
const smallObjectBytes = 32 << 10

// Take returns a frame of the staged records, copied into allocations of
// exactly their size — one when the frame's bytes fit smallObjectBytes, else
// as few as whole records allow — and cut from them with full slice
// expressions, so appending to one record never writes into the next. The
// scratch is kept for the next frame.
func (a *FrameAppender) Take() *Frame {
	f := &Frame{Records: make([][]byte, len(a.ends))}
	for i, start := 0, 0; i < len(a.ends); {
		// One piece: record i and those after it that fit with it.
		j := i + 1
		for j < len(a.ends) && a.ends[j]-start <= smallObjectBytes {
			j++
		}
		piece := make([]byte, a.ends[j-1]-start)
		copy(piece, a.Buf[start:])
		for base := start; i < j; i++ {
			end := a.ends[i]
			f.Records[i] = piece[start-base : end-base : end-base]
			start = end
		}
	}
	a.Reset()
	return f
}

// Reset drops the staged records, keeping the scratch.
func (a *FrameAppender) Reset() { a.Buf, a.ends = a.Buf[:0], a.ends[:0] }

// Writer is the push-based dataflow interface between operator tasks,
// mirroring Hyracks' IFrameWriter. A producer calls Open once, NextFrame any
// number of times, and then exactly one of Close (graceful end of stream) or
// Fail (abnormal termination).
type Writer interface {
	// Open prepares the writer to receive frames.
	Open() error
	// NextFrame delivers one frame downstream. It may block to exert
	// back-pressure.
	NextFrame(f *Frame) error
	// Close signals a graceful end of the stream.
	Close() error
	// Fail signals abnormal termination of the stream.
	Fail(err error)
}

// NopWriter is a Writer that discards everything; Hyracks' NullSink operator
// wraps it.
type NopWriter struct{}

// Open implements Writer.
func (NopWriter) Open() error { return nil }

// NextFrame implements Writer.
func (NopWriter) NextFrame(*Frame) error { return nil }

// Close implements Writer.
func (NopWriter) Close() error { return nil }

// Fail implements Writer.
func (NopWriter) Fail(error) {}

// FuncWriter adapts a function to the Writer interface; open/close/fail are
// no-ops. Useful in tests and leaf sinks.
type FuncWriter func(*Frame) error

// Open implements Writer.
func (FuncWriter) Open() error { return nil }

// NextFrame implements Writer.
func (fw FuncWriter) NextFrame(f *Frame) error { return fw(f) }

// Close implements Writer.
func (FuncWriter) Close() error { return nil }

// Fail implements Writer.
func (FuncWriter) Fail(error) {}
