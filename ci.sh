#!/bin/sh
# ci.sh — tier-1 verification in one command: build, vet, feedlint, tests.
# Usage: ./ci.sh [-race]  (-race appends the race-detector tier)
set -eu

go build ./...
echo "build: ok"

# The number simplicity PRs are judged by, against the previous commit.
# Informational: it never fails the run.
make -s loc REF=HEAD~1 || true

# go vet is the lock-copy gate: its copylocks check refuses a sync value
# copied by value (parameter, receiver, assignment). feedlint has no copy of
# that rule.
go vet ./...
echo "vet: ok"

go run ./cmd/feedlint ./...
echo "feedlint: ok"

# feedlint's archrule table also holds the guards that keep a deleted
# mechanism from coming back (one row each, with its reason). This one stays
# a grep: it refuses an expression shape, not a name. A frame is stored in
# one call; re-slicing it into one-record frames brings back the retry that
# costs one WAL append per record per tree (381 for a frame of 128 with one
# refusal, against 3).
if grep -rnE 'Records\[[[:alnum:]_]+ *: *[[:alnum:]_]+ *\+ *1\]' internal/core --include='*.go' --exclude='*_test.go' >&2; then
	echo "a one-record re-slice of a frame is back in internal/core" >&2
	exit 1
fi
echo "store: one call per frame"

go test ./...
echo "test: ok"

# bench/ is its own module, so the commands above never see it: keep the
# benchmark compiling and its own tests passing against the layers it drives.
(cd bench && go vet ./... && go test ./...)
echo "bench module: ok"

# Replay the checked-in fuzz corpora (testdata/fuzz seeds run as ordinary
# tests) for the two codecs with wire formats: ADM records (SkipValue held to
# Decode's verdict and to AppendValue's bytes, and the Transcode,
# ValidateEncoded, HashEncoded and AppendWithField differentials)
# and LSM run files — single blocks (FuzzRunBlock) and whole files through
# the loader (FuzzLoadRun: format 02, one to many segments, torn headers and
# trailers, garbage tails) — and for the two readers of encoded records
# above them: the hash connector against PartitionOf (storage) and the
# built-in UDFs' encoded path against decode → Apply → encode (core).
# `-run Fuzz` picks up every target in a listed package, so a new one there
# needs no edit here; a target in another package does. Keeps past crashers
# fixed without needing a fuzzing budget; `make fuzz-adm` spends one.
go test -run Fuzz -count=1 ./internal/adm/ ./internal/lsm/ ./internal/storage/ ./internal/core/
echo "fuzz corpus replay: ok"

make bench-smoke
echo "bench-smoke: ok"

make watch-smoke
echo "watch-smoke: ok"

go run ./cmd/feedchaos -seeds 50 -records 150
echo "chaos-smoke: ok"

go run ./cmd/feedchaos -restart -seeds 50 -records 150
echo "chaos-restart-smoke: ok"

make chaos-overload-smoke
echo "chaos-overload-smoke: ok"

if [ "${1:-}" = "-race" ]; then
	go test -race -short ./internal/core/... ./internal/hyracks/... ./internal/lsm/... ./internal/storage/... ./internal/governor/... ./internal/chaos/...
	# The block cache lends evicted buffers to the next point-read miss; a pin
	# taken or dropped in the wrong place shows only in some interleavings,
	# so the two cache hammers run twenty times over. So does the memtable
	# filter hammer: point reads against batches and rotations on one tree.
	go test -race -count=20 -run 'RecycledBlocks|ConcurrentReadsWithCache|MemtableFilterHammer' ./internal/lsm/
	# Partition readers take no lock: reads beside a frame parked inside a
	# WAL append, and the model history with concurrent readers checking
	# every read, run twenty times over for the same reason. So do the blind
	# retry and the secondaries' merge filters, which probe the primary from
	# the compactor while frames write it, and Lookup's decode inside the
	# block its read pinned, held while later misses recycle that block.
	go test -race -short -count=20 -run 'BesideStalled|PartitionMatchesModel|UpsertRetry|MergeDropsStale|MergeFilterKeeps|NamesEveryRefusal|FaultFallback|LookupOutlivesRecycledBlocks' ./internal/storage/
	go test -race -count=20 -run 'MergeFilter' ./internal/lsm/
	# The intake's one loop: replays through the subscription, the wake on
	# the ack that empties the tracker, a disconnect that precedes
	# Subscribe (also with a parked subscription left by a tail rebuild),
	# and one goroutine per intake instance.
	go test -race -count=20 -run 'IntakeIsOneGoroutine|SubscriptionReplays|ReplayDroppedIsCounted|IntakeDrainsWhenDisconnectPrecedesSubscribe|DisconnectDrainsParkedSubscription|AckTracker' ./internal/core/
	# The store stage's one call per frame: refusals as soft failures in
	# frame order, their acks beside the survivors' one insert.
	go test -race -count=20 -run 'StoreRefusal' ./internal/core/
	# One buffer per frame: the collect sink and the compute stage stage
	# records in a scratch they reuse and cut each frame from one copy, and
	# an indexed store keeps a frame's primary keys in one allocation. A
	# frame still aliasing a scratch is a race the detector sees.
	go test -race -count=20 -run 'BatchingSink|EmitEncoded|AssignFrameAllocs|AppendEncoded|SocketAdaptorFlushesOnPause' ./internal/core/
	go test -race -count=20 -run 'FrameAppender' ./internal/hyracks/
	go test -race -short -count=20 -run 'FrameScratchAddAllocs|InsertFrameAllocs' ./internal/storage/
	# End-to-end replication and restart tests: the promotion/resync and
	# recovery paths are the most concurrency-sensitive in the stack. The
	# socket and file adaptors ride along: each transcodes a line into a
	# scratch it reuses and the sink copies it into the frame, so a record
	# still aliasing that scratch is a race the detector sees.
	go test -race -short -run '(?i)replicat|Restart|FeedMaintains|SocketAdaptor|FileFeed' .
	# The two process-kill tests: a child acks writes at SyncWAL 0 and is
	# sent SIGKILL; a reopen must find every acked record. Five times each,
	# so an ack that runs ahead of its write shows.
	go test -race -count=5 -run 'AckedBatchesSurviveSIGKILL' ./internal/lsm/
	go test -race -count=5 -run 'AckedInsertsSurviveSIGKILL' .
	# The governor's load-shedding path under the race detector: the full
	# 50-seed overload sweep (the acceptance bar for the governor).
	go run -race ./cmd/feedchaos -overload -seeds 50 -records 120
	echo "race: ok"
fi
