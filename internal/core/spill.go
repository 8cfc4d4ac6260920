package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"asterixfeeds/internal/hyracks"
)

// spillStore is the part of *os.File a spill file uses; tests substitute one
// whose calls fail.
type spillStore interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Close() error
}

// spillFile is the on-disk overflow area the Spill policy uses for excess
// records (§7.3.2): frames are appended at the tail and replayed from the
// head in FIFO order once memory frees up. A frame on disk is a 4-byte body
// length, then the body: each record behind its own 4-byte length (all
// little-endian). Every write and read names its offset, and an offset moves
// only after the call that used it succeeded, so an I/O error leaves the
// file exactly as readable as it was.
type spillFile struct {
	f        spillStore
	path     string
	buf      []byte // the frame being written, reused
	readOff  int64
	writeOff int64
	frames   int
	bytes    int64 // on-disk footprint: what a truncate would give back
	maxBytes int64
}

// newSpillFile creates a spill file at path. maxBytes <= 0 means unbounded.
func newSpillFile(path string, maxBytes int64) (*spillFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: creating spill file: %w", err)
	}
	return &spillFile{f: f, path: path, maxBytes: maxBytes}, nil
}

// push appends one frame. Returns false (without writing) when the spill
// budget would be exceeded. A failed write counts for nothing: the next
// push starts at the same offset, over whatever part of this one landed.
func (s *spillFile) push(fr *hyracks.Frame) (bool, error) {
	size := 4
	for _, r := range fr.Records {
		size += 4 + len(r)
	}
	if s.maxBytes > 0 && s.bytes+int64(size) > s.maxBytes {
		return false, nil
	}
	buf := binary.LittleEndian.AppendUint32(s.buf[:0], uint32(size-4))
	for _, r := range fr.Records {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
		buf = append(buf, r...)
	}
	s.buf = buf
	if _, err := s.f.WriteAt(buf, s.writeOff); err != nil {
		return false, fmt.Errorf("core: writing spill file: %w", err)
	}
	s.writeOff += int64(size)
	s.bytes += int64(size)
	s.frames++
	return true, nil
}

// pop reads the oldest spilled frame, or nil when the spill is empty. A
// failed read returns (nil, err) and consumes nothing: the frame is still
// the oldest. A non-nil frame is whole even beside a non-nil error, which
// then says only that the drained file could not be truncated — its space
// stays counted in bytes until a later drain gives it back.
func (s *spillFile) pop() (*hyracks.Frame, error) {
	if s.frames == 0 {
		return nil, nil
	}
	var lenBuf [4]byte
	if _, err := s.f.ReadAt(lenBuf[:], s.readOff); err != nil {
		return nil, fmt.Errorf("core: reading spill file: %w", err)
	}
	n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > s.writeOff-s.readOff-4 {
		return nil, errSpillCorrupt
	}
	// The body is read into memory of its own: the frame's records are
	// carved from it and outlive this call.
	body := make([]byte, n)
	if _, err := s.f.ReadAt(body, s.readOff+4); err != nil {
		return nil, fmt.Errorf("core: reading spill file: %w", err)
	}
	fr, err := decodeSpilled(body)
	if err != nil {
		return nil, err
	}
	s.readOff += 4 + int64(len(body))
	s.frames--
	if s.frames == 0 {
		// Fully drained: reclaim the file space.
		if err := s.f.Truncate(0); err != nil {
			return fr, fmt.Errorf("core: truncating spill file: %w", err)
		}
		s.readOff, s.writeOff, s.bytes = 0, 0, 0
	}
	return fr, nil
}

var errSpillCorrupt = errors.New("core: spill file: malformed frame")

// decodeSpilled carves a frame's records out of its on-disk body.
func decodeSpilled(body []byte) (*hyracks.Frame, error) {
	fr := hyracks.NewFrame(0)
	for len(body) > 0 {
		if len(body) < 4 {
			return nil, errSpillCorrupt
		}
		rl := int(binary.LittleEndian.Uint32(body))
		if rl > len(body)-4 {
			return nil, errSpillCorrupt
		}
		fr.Append(body[4 : 4+rl : 4+rl])
		body = body[4+rl:]
	}
	return fr, nil
}

// pending reports the number of spilled frames awaiting replay.
func (s *spillFile) pending() int { return s.frames }

// close releases and deletes the spill file; the file is removed whatever
// closing it returned.
func (s *spillFile) close() error {
	closeErr := s.f.Close()
	rmErr := os.Remove(s.path)
	if closeErr != nil {
		return closeErr
	}
	return rmErr
}
