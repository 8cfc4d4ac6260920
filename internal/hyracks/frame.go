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

// Slice returns a new frame over records [lo, hi) of f, with their ids when
// f is tracked. The record byte slices are shared, not copied.
func (f *Frame) Slice(lo, hi int) *Frame {
	out := &Frame{Records: f.Records[lo:hi]}
	if len(f.IDs) > 0 {
		out.IDs = f.IDs[lo:hi]
	}
	return out
}

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
