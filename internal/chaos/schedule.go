package chaos

import (
	"math/rand"
	"strings"
)

// The scenario topology is fixed (see runner.go): nodes A (intake), B and C
// (store), dataset "Chaos" on nodegroup [B, C] with synchronous replication
// and a secondary index country_idx. Partition 0 lives on B (dir p000) with
// its replica on C (dir r000); partition 1 lives on C (dir p001) with its
// replica on B (dir r001).
//
// GenSchedule draws from a menu of fault candidates keyed to that topology.
// At most one "killer" fault (node death via frame kill or torn WAL write)
// is armed per schedule: the 3-node cluster cannot lose two of its store
// nodes and still satisfy any delivery invariant, and the point of the
// harness is to find bugs in recovery, not to prove that total cluster loss
// loses data.
//
// No "core:resync:insert" fault appears in the menu: after promotion
// rewrites the nodegroup, ReplicaOf(i) equals the promoted node itself, so
// the natural promotion path records a degradation instead of copying and
// the point never fires. The copy path is covered directly by
// core/recovery_resync_test.go.

type candidate struct {
	point  string
	action Action
	// maxHit bounds the armed hit count: the fault fires somewhere in the
	// first maxHit occurrences of the point (from firstHit on), chosen by
	// the seed.
	maxHit int
}

// firstHit is the lowest hit count GenSchedule arms at point. A tree's first
// manifest:append is the snapshot its Open writes, which restartMenu covers;
// the workload's faults there hit commits.
func firstHit(point string) int {
	if strings.HasSuffix(point, "/manifest:append") {
		return 2
	}
	return 1
}

var killerMenu = []candidate{
	{"frame:B:Store", ActKill, 6},
	{"frame:C:Store", ActKill, 6},
	{"lsm:B/p000/primary/wal.appendBatch", ActTorn, 6},
	{"lsm:C/p001/primary/wal.appendBatch", ActTorn, 6},
	// Crash during a background flush/merge: the node dies after the run's
	// bytes are written but before the rename publishes it, leaving .tmp
	// debris; replay of the still-present WAL segments must recover every
	// unflushed record.
	{"lsm:B/p000/primary/flush:bg", ActTorn, 3},
	{"lsm:C/p001/primary/flush:bg", ActTorn, 3},
	{"lsm:B/p000/primary/merge:bg", ActTorn, 2},
	{"lsm:C/p001/primary/merge:bg", ActTorn, 2},
	// Node lost to a media failure during a block read (upsert probe or
	// merge input scan). Reads never gate durability, so recovery must still
	// find every acknowledged record.
	{"lsm:B/p000/primary/read:block", ActTorn, 4},
	{"lsm:C/p001/primary/read:block", ActTorn, 4},
	// Crash mid-commit: a flush's or merge's manifest record is torn, and the
	// node dies with the run published but not committed (hits 2–6: see
	// firstHit). Recovery drops the torn record: the run is an orphan or an
	// extension past the committed length, and the WAL above the floor
	// replays it.
	{"lsm:B/p000/primary/manifest:append", ActTorn, 6},
	{"lsm:C/p001/primary/manifest:append", ActTorn, 6},
	{"lsm:B/p000/country_idx/manifest:append", ActTorn, 6},
	{"lsm:C/r000/primary/manifest:append", ActTorn, 6},
}

var benignMenu = []candidate{
	{"lsm:B/p000/primary/wal.appendBatch", ActErr, 8},
	{"lsm:C/p001/primary/wal.appendBatch", ActErr, 8},
	{"lsm:B/p000/primary/wal.sync", ActErr, 8},
	{"lsm:C/p001/primary/wal.sync", ActErr, 8},
	{"lsm:C/r000/primary/wal.appendBatch", ActErr, 8},
	{"lsm:B/r001/primary/wal.appendBatch", ActErr, 8},
	{"lsm:B/p000/country_idx/wal.appendBatch", ActErr, 8},
	{"lsm:C/p001/country_idx/wal.appendBatch", ActErr, 8},
	// Transient background-pipeline failures (a passing EIO): the flusher
	// and compactor retry after a beat, and nothing is lost or stalled for
	// good.
	{"lsm:B/p000/primary/flush:bg", ActErr, 3},
	{"lsm:C/p001/primary/flush:bg", ActErr, 3},
	{"lsm:B/p000/primary/merge:bg", ActErr, 2},
	{"lsm:C/p001/primary/merge:bg", ActErr, 2},
	// Read-path faults: a transient block read error (EIO that clears) and a
	// bit flip the per-block CRC must catch. Both are retryable — the bytes
	// on disk are intact — so the pipeline recovers without losing a record.
	{"lsm:B/p000/primary/read:block", ActErr, 4},
	{"lsm:C/p001/primary/read:block", ActErr, 4},
	{"lsm:B/p000/primary/read:block", ActFlip, 4},
	{"lsm:C/p001/primary/read:block", ActFlip, 4},
	{"core:ack:B", ActErr, 5},
	{"core:ack:C", ActErr, 5},
	// The scenario policy spills excess intake backlog to disk; an injected
	// spill-write failure must fall back to in-memory buffering (counted in
	// SubscriptionStats.SpillErrors) without losing a record.
	{"core:spill:push", ActErr, 6},
	{"frame:B:Store", ActStall, 8},
	{"frame:C:Store", ActStall, 8},
	{"adaptor:p0", ActCrash, 40},
}

// restartMenu holds faults that only make sense while a tree is *opening*:
// crashes at the open-time manifest snapshot and mid-WAL-replay. They are
// armed on the fresh injector of a restart phase (Scenario.Restart), never
// on the workload injector — during steady state the points are not hit.
//
// manifest:append fires exactly once per open (the lazy snapshot), so every
// candidate pins hit 1. recover:replay fires once per replayed WAL record;
// the hit bound spans the plausible unflushed tail of the workload so the
// crash lands anywhere from the first record to deep mid-replay.
var restartMenu = []candidate{
	{"lsm:B/p000/primary/manifest:append", ActTorn, 1},
	{"lsm:B/p000/primary/manifest:append", ActErr, 1},
	{"lsm:C/p001/primary/manifest:append", ActTorn, 1},
	{"lsm:C/p001/primary/manifest:append", ActErr, 1},
	{"lsm:B/p000/country_idx/manifest:append", ActTorn, 1},
	{"lsm:C/p001/country_idx/manifest:append", ActErr, 1},
	{"lsm:C/r000/primary/manifest:append", ActTorn, 1},
	{"lsm:B/r001/primary/manifest:append", ActErr, 1},
	{"lsm:B/p000/primary/recover:replay", ActTorn, 25},
	{"lsm:B/p000/primary/recover:replay", ActErr, 25},
	{"lsm:C/p001/primary/recover:replay", ActTorn, 25},
	{"lsm:C/p001/primary/recover:replay", ActErr, 25},
	{"lsm:B/p000/country_idx/recover:replay", ActTorn, 15},
	{"lsm:C/p001/country_idx/recover:replay", ActErr, 15},
	{"lsm:C/r000/primary/recover:replay", ActErr, 25},
	{"lsm:B/r001/primary/recover:replay", ActTorn, 25},
}

// GenSchedule derives a fault schedule purely from the seed: zero to two
// benign faults plus, with probability ~1/2, one killer fault. The same
// seed always yields the same schedule.
func GenSchedule(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var s Schedule
	pick := func(menu []candidate) Fault {
		c := menu[rng.Intn(len(menu))]
		lo := firstHit(c.point)
		return Fault{Point: c.point, Hit: lo + rng.Intn(c.maxHit-lo+1), Action: c.action}
	}
	for n := rng.Intn(3); n > 0; n-- {
		s = append(s, pick(benignMenu))
	}
	if rng.Intn(2) == 0 {
		s = append(s, pick(killerMenu))
	}
	return s
}

// restartSeedSalt decorrelates the restart schedule from the workload
// schedule so seed N's restart faults are not a function of its workload
// faults — the two sweeps explore independently.
const restartSeedSalt = 0x7265737461727431 // "restart1"

// GenRestartSchedule derives the restart-phase fault schedule purely from
// the seed: one or two faults from the restart menu, injected during the
// post-shutdown reopen of Scenario.Restart runs. The same seed always
// yields the same schedule.
func GenRestartSchedule(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed ^ restartSeedSalt))
	var s Schedule
	for n := 1 + rng.Intn(2); n > 0; n-- {
		c := restartMenu[rng.Intn(len(restartMenu))]
		s = append(s, Fault{Point: c.point, Hit: 1 + rng.Intn(c.maxHit), Action: c.action})
	}
	return s
}
