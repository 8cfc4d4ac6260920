package lsm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// walRecordKind tags a WAL record and, inside a batch, each of its ops.
type walRecordKind byte

const (
	// walPut and walDelete are the op kinds inside a batch. Logs written
	// before the batch format carry them as top-level records too; replay
	// still reads those (as one-op batches), nothing writes them.
	walPut walRecordKind = iota + 1
	walDelete
	// walBatch is the one record kind appendBatch writes: N >= 1 mutations
	// under one CRC. Replay applies the contained mutations in order, or
	// none of them when the record is torn or corrupt.
	walBatch
)

// wal is one write-ahead log segment: every mutation is appended (and
// optionally synced) before it is applied to the memtable, giving
// record-level durability and crash recovery by replay. A Tree rotates
// through segments — each memtable incarnation owns exactly one — so a
// segment is retired (discard) as a unit once its memtable's flushed run
// is durable, instead of truncating a shared log in place.
type wal struct {
	f    *os.File
	w    *bufio.Writer
	path string
	// seq is the segment number parsed from the file name; the flusher
	// records it as the manifest's checkpoint floor when the segment is
	// retired, so replay knows exactly where durable history ends.
	seq int
	// syncEvery groups fsyncs: 0 disables syncing (tests), 1 syncs every
	// append, n>1 syncs every n appends. An append is one batch, so
	// syncEvery=1 is group commit: one deferred fsync per batch rather
	// than one per record. The commit is two-phase: appends
	// and the threshold decision (flushDue) happen under the tree lock,
	// the fsync itself (fsync) after it is released.
	syncEvery int
	pending   int
	// gateC is the group-commit gate: a one-token semaphore serializing
	// fsync (and the segment's teardown) so concurrent committers queue on
	// the durability wait without holding the tree lock. A channel rather
	// than a mutex so that nothing is ever *locked* into the fsync — the
	// token is acquired by receiving, returned by sending; dead is only
	// touched while holding the token.
	gateC chan struct{}
	// dead marks a retired segment: its records are durable in a run file
	// (discard) or the tree is closing (close). Late fsyncs on a dead
	// segment succeed vacuously.
	dead bool
	// scratch is the reusable encoding buffer for batch records, so the
	// steady-state batch path does not allocate per append.
	scratch []byte
	// fault, when non-nil, is consulted before every append/sync; see
	// FaultHook. broken wedges the log after an injected torn write.
	fault  FaultHook
	broken bool
	// metrics, when non-nil, counts appends, bytes, and fsyncs.
	metrics *Metrics
}

// openWAL opens (creating if needed) the WAL segment at path for appending.
func openWAL(path string, syncEvery int, fault FaultHook, m *Metrics) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: opening wal: %w", err)
	}
	var seq int
	fmt.Sscanf(filepath.Base(path), "wal-%06d.log", &seq)
	w := &wal{f: f, w: bufio.NewWriterSize(f, 1<<16), path: path, seq: seq, syncEvery: syncEvery, fault: fault, metrics: m, gateC: make(chan struct{}, 1)}
	w.gateRelease() // seed the single group-commit token
	return w, nil
}

// gateAcquire takes the group-commit token; gateRelease returns it. The
// release is a select-with-default only to make its non-blocking nature
// explicit — the gate holds at most one token, so the send cannot block.
func (w *wal) gateAcquire() { <-w.gateC }

func (w *wal) gateRelease() {
	select {
	case w.gateC <- struct{}{}:
	default:
	}
}

// tearWrite persists a strict prefix of record (the complete encoded bytes
// of one WAL record, CRC included), flushes it to the OS, and wedges the
// log: the on-disk tail now looks exactly like a crash mid-write, and every
// later operation on this WAL reports ErrWALBroken.
func (w *wal) tearWrite(record []byte) error {
	w.broken = true
	n := len(record) / 2
	if n == 0 {
		n = 1
	}
	if _, err := w.w.Write(record[:n]); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	return ErrTornWrite
}

// appendBatch writes every op as one composite record:
//
//	crc32(le u32) kind=walBatch(1) count(uvarint)
//	  { opkind(1) klen(uvarint) vlen(uvarint) key value }*
//
// The CRC covers the entire body, so a torn tail invalidates the batch as a
// unit and replay drops it atomically. The batch counts as a single append
// toward syncEvery: group commit defers (at most) one fsync to the end of
// the batch instead of paying one per record.
func (w *wal) appendBatch(ops []batchOp) error {
	if len(ops) == 0 {
		return nil
	}
	if w.broken {
		return ErrWALBroken
	}
	// The whole record is assembled in scratch, the CRC in front of the
	// body it covers, and written at once.
	rec := append(w.scratch[:0], 0, 0, 0, 0)
	rec = append(rec, byte(walBatch))
	rec = binary.AppendUvarint(rec, uint64(len(ops)))
	for _, op := range ops {
		rec = append(rec, byte(op.kind))
		rec = binary.AppendUvarint(rec, uint64(len(op.key)))
		rec = binary.AppendUvarint(rec, uint64(len(op.value)))
		rec = append(rec, op.key...)
		rec = append(rec, op.value...)
	}
	w.scratch = rec[:0]
	body := rec[4:]
	binary.LittleEndian.PutUint32(rec, crc32.ChecksumIEEE(body))

	if w.fault != nil {
		if err := w.fault("wal.appendBatch"); err != nil {
			if errors.Is(err, ErrTornWrite) {
				return w.tearWrite(rec)
			}
			return err
		}
	}
	if _, err := w.w.Write(rec); err != nil {
		return err
	}
	if w.metrics != nil {
		w.metrics.WALAppends.Add(1)
		w.metrics.WALBytes.Add(int64(4 + len(body)))
	}
	w.pending++
	return nil
}

// flushDue is the buffered half of group commit. Called with the tree
// lock held after a successful append, it decides whether this append
// crossed the syncEvery threshold and, if so, flushes the buffered
// records to the OS. The fsync itself is the caller's to run via fsync —
// after releasing the tree lock — so a stalled disk blocks only the
// committers waiting on durability, never the lock.
func (w *wal) flushDue() (bool, error) {
	if w.syncEvery <= 0 || w.pending < w.syncEvery {
		return false, nil
	}
	if w.fault != nil {
		if err := w.fault("wal.sync"); err != nil {
			return false, err
		}
	}
	w.pending = 0
	if err := w.w.Flush(); err != nil {
		return false, err
	}
	if w.metrics != nil {
		w.metrics.WALSyncs.Add(1)
	}
	return true, nil
}

// fsync durably persists records already flushed by flushDue. It must be
// called without the tree lock — committers queue on the gate token, not
// on any mutex, so a stalled disk never blocks readers or other writers.
// A dead segment's records are already durable in a run file, so the
// fsync succeeds vacuously.
func (w *wal) fsync() error {
	w.gateAcquire()
	defer w.gateRelease()
	if w.dead {
		return nil
	}
	return w.f.Sync()
}

// seal flushes buffered records to the OS when the segment stops being the
// active one: after a rotation only fsync and discard touch it, and both
// reach the file directly. Called with the tree lock held; the buffered
// writer is only ever used under that lock.
func (w *wal) seal() error {
	return w.w.Flush()
}

// close flushes and closes the segment file, leaving it on disk for replay.
func (w *wal) close() error {
	w.gateAcquire()
	defer w.gateRelease()
	if w.dead {
		return nil
	}
	w.dead = true
	if err := w.w.Flush(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}

// discard retires a sealed segment whose memtable's run is durable: the
// segment's records are redundant, so the file is closed and deleted. Any
// committer still waiting on fsync for this segment completes vacuously —
// its record's durability is now the run file's.
func (w *wal) discard() error {
	w.gateAcquire()
	defer w.gateRelease()
	if w.dead {
		return nil
	}
	w.dead = true
	cerr := w.f.Close()
	if err := os.Remove(w.path); err != nil {
		return err
	}
	return cerr
}

// teeByteReader feeds every byte it reads into a CRC, so replay can verify
// records without re-encoding their headers.
type teeByteReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (t *teeByteReader) ReadByte() (byte, error) {
	b, err := t.r.ReadByte()
	if err != nil {
		return 0, err
	}
	var buf [1]byte
	buf[0] = b
	t.crc.Write(buf[:])
	return b, nil
}

func (t *teeByteReader) readFull(p []byte) error {
	if _, err := io.ReadFull(t.r, p); err != nil {
		return err
	}
	t.crc.Write(p)
	return nil
}

// readMutation parses one klen/vlen/key/value mutation body (the kind byte
// has already been consumed).
func (t *teeByteReader) readMutation() (key, value []byte, ok bool) {
	klen, err := binary.ReadUvarint(t)
	if err != nil {
		return nil, nil, false
	}
	vlen, err := binary.ReadUvarint(t)
	if err != nil {
		return nil, nil, false
	}
	if klen > 1<<30 || vlen > 1<<30 {
		return nil, nil, false // corrupt length: treat as torn tail
	}
	key = make([]byte, klen)
	if err := t.readFull(key); err != nil {
		return nil, nil, false
	}
	value = make([]byte, vlen)
	if err := t.readFull(value); err != nil {
		return nil, nil, false
	}
	return key, value, true
}

// replayWAL reads records from the WAL at path, invoking fn for each valid
// mutation in log order. A record replays atomically — all of its mutations
// or, when torn or corrupt, none. A top-level walPut/walDelete record (the
// pre-batch format of an earlier build's log) is a batch of one whose kind
// byte is its op kind. A torn or corrupt tail terminates replay without
// error, matching standard WAL semantics.
func replayWAL(path string, fn func(kind walRecordKind, key, value []byte) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("lsm: opening wal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var muts []batchOp
	for {
		var crcBuf [4]byte
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			return nil // clean EOF or torn tail
		}
		wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
		tee := &teeByteReader{r: r, crc: crc32.NewIEEE()}

		kindB, err := tee.ReadByte()
		if err != nil {
			return nil
		}
		count := uint64(1)
		if walRecordKind(kindB) == walBatch {
			if count, err = binary.ReadUvarint(tee); err != nil || count > 1<<24 {
				return nil
			}
		}
		muts = muts[:0]
		for i := uint64(0); i < count; i++ {
			opB := kindB
			if walRecordKind(kindB) == walBatch {
				if opB, err = tee.ReadByte(); err != nil {
					return nil
				}
			}
			if walRecordKind(opB) != walPut && walRecordKind(opB) != walDelete {
				return nil // unknown kind: corrupt tail
			}
			key, value, ok := tee.readMutation()
			if !ok {
				return nil
			}
			muts = append(muts, batchOp{walRecordKind(opB), key, value})
		}
		// A torn or corrupt record is dropped as a unit: no partial
		// application of a group commit.
		if tee.crc.Sum32() != wantCRC {
			return nil
		}
		for _, m := range muts {
			if err := fn(m.kind, m.key, m.value); err != nil {
				return err
			}
		}
	}
}
