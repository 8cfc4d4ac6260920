package lsm

import "errors"

// FaultHook is consulted at named failure points inside the storage engine:
// on the write path ("wal.appendBatch", "wal.sync"), in the
// background pipeline ("flush:bg" once a flush has written its blocks and
// before anything publishes them, "merge:bg" likewise for a merge, then
// "run:trailer" and "run:header" before the segment's index-to-trailer
// section and its header are written), on the read path
// ("read:block" before a run block is read from disk — cache hits never
// consult it, since no disk is touched), and on the recovery path
// ("manifest:append" before every manifest edit or snapshot write,
// including the snapshot Open itself writes, and "recover:replay" before
// each WAL record Open replays — together they let a harness crash a tree
// at any instant of recovery itself). A nil return lets the operation
// proceed; a non-nil return is injected as that operation's outcome. Hooks
// exist for fault-injection harnesses (see internal/chaos); production code
// never installs one.
//
// Two sentinel errors get special treatment:
//
//   - ErrInjected (or any other plain error) fails the operation cleanly,
//     before any bytes reach the log — a transient environmental failure
//     (ENOSPC, EIO on fsync). The tree remains usable.
//   - ErrTornWrite makes the WAL write a strict prefix of the encoded record
//     and then wedges the log (every later append returns ErrWALBroken) —
//     modelling a crash mid-write. The on-disk tail is torn exactly the way
//     replay's CRC check expects, and the tree must be abandoned and
//     reopened, as a crashed node's would be. At the background points
//     ("flush:bg", "merge:bg") it instead leaves the run's temp file — or,
//     for a flush extending a run, the headerless tail of that run's file —
//     as crash debris and wedges the whole tree: writers start failing, but
//     the files on disk are exactly what a crash at that instant leaves.
//     At "run:trailer" and "run:header" the same, with the first half of
//     that write persisted as well.
//     At "manifest:append" it persists a strict prefix of the manifest
//     record (or, for a snapshot write, a torn unrenamed temp file) and
//     wedges the manifest — the torn tail the next Open drops, recovering
//     from the records before it. At "recover:replay" both sentinels
//     simply abort the Open mid-replay, leaving every file in place for
//     the next attempt.
//
// ErrInjected at a background point is retried by the flusher/compactor
// after a short delay, modelling a transient environmental failure that
// clears (the injection hit-counts do not re-fire).
type FaultHook func(op string) error

var (
	// ErrInjected is a clean injected failure: the operation fails before
	// mutating anything.
	ErrInjected = errors.New("lsm: injected fault")
	// ErrTornWrite instructs the WAL to persist a torn (prefix-only) record
	// and wedge itself, simulating a crash mid-write.
	ErrTornWrite = errors.New("lsm: injected torn write")
	// ErrWALBroken is returned by every WAL operation after a torn or failed
	// write has wedged the log. The owning tree must be discarded and
	// reopened.
	ErrWALBroken = errors.New("lsm: wal broken by torn write")
	// ErrCorruptRead, returned by a hook at "read:block", makes the run flip
	// one bit in the freshly read block — modelling media corruption the
	// per-block CRC must catch. The read then fails with an error matching
	// both ErrChecksum (the symptom) and ErrInjected (so the background
	// pipeline treats it as transient and retries: the bytes on disk are
	// intact, only this read was poisoned).
	ErrCorruptRead = errors.New("lsm: injected corrupt read")
)
