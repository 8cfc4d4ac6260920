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

# One checker per lock rule: go vet owns lock copies, lockorder owns a lock
# held into a send at every call depth, and the loader resolves stdlib
# imports one way (from source). A mutexcheck package or a -faststd importer
# brings back a second checker of the same rule, or a second importer for
# the same packages.
if [ -d internal/lint/mutexcheck ] ||
	grep -rnE 'faststd|FastStd' cmd/feedlint internal/lint >/dev/null 2>&1; then
	echo "a second lock checker or stdlib importer is back in feedlint:" >&2
	ls -d internal/lint/mutexcheck >&2 2>/dev/null || true
	grep -rnE 'faststd|FastStd' cmd/feedlint internal/lint >&2 || true
	exit 1
fi
echo "lock rules: one checker each"

# The background flush/compaction pipeline was specifically built so the LSM
# needs no lockorder waivers: no disk I/O happens under the tree lock. Keep
# it that way — new suppressions in internal/lsm are a design regression,
# not a lint inconvenience.
if grep -rn "feedlint:allow lockorder" internal/lsm/ >/dev/null 2>&1; then
	echo "lockorder suppressions found in internal/lsm:" >&2
	grep -rn "feedlint:allow lockorder" internal/lsm/ >&2
	exit 1
fi
echo "lsm lockorder suppressions: none"

# Frames and feed buffers are garbage-collected: the header pool this guards
# against recycled nothing on the feed path (a frame a subscription kept was
# never put back) and cost three ownership rules. To lift the guard, show an
# Ablations row in DESIGN.md from interleaved bench/run.sh pairs in which the
# pool moves an end-to-end metric.
if grep -rn "sync\.Pool" internal/hyracks internal/core --include='*.go' >/dev/null 2>&1; then
	echo "sync.Pool is back under internal/hyracks or internal/core:" >&2
	grep -rn "sync\.Pool" internal/hyracks internal/core --include='*.go' >&2
	exit 1
fi
# The governor sums atomic loads on every call and holds no cache, so it has
# no use for a clock (the token bucket's is in admission.go/clock.go). A
# "time" import in governor.go means a TTL or a timestamp came back: the same
# proof — an Ablations row from interleaved pairs — is what lifts this.
if grep -n '"time"' internal/governor/governor.go >/dev/null 2>&1; then
	echo 'internal/governor/governor.go imports "time" again' >&2
	exit 1
fi
echo "frame pool and governor clock: none"

# Textual ADM has one reader: Transcode, with Parse = DecodeOne(Transcode(…)).
# The recursive-descent parser lives on only as FuzzTranscode's oracle in
# parse_oracle_test.go. A second production parser, or a Transcode that hands
# lines to Parse again, brings back two readers of one grammar to keep in step.
if grep -rnE 'type[[:space:]]+parser[[:space:]]' internal/adm --include='*.go' --exclude='*_test.go' >/dev/null 2>&1 ||
	grep -nE '(^|[^[:alnum:]_])Parse\(' internal/adm/transcode.go >/dev/null 2>&1; then
	echo "a second reader of textual ADM is back in internal/adm:" >&2
	grep -rnE 'type[[:space:]]+parser[[:space:]]' internal/adm --include='*.go' --exclude='*_test.go' >&2 || true
	grep -nE '(^|[^[:alnum:]_])Parse\(' internal/adm/transcode.go >&2 || true
	exit 1
fi
echo "textual ADM readers: one"

# Binary ADM has one checker: SkipValue. Decode, DecodeOne, HashEncoded,
# AppendWithField and ValidateEncoded take its verdict — only AppendValue's
# bytes pass — and never work it out again. A decode fallback, or a second walk
# that works out canonical form again, brings back readers that can disagree
# on which bytes are a value.
binforks='errValidateFallback|validateDecoded|appendWithFieldDecoded|canonicalLen'
if grep -rnE "$binforks" internal/adm --include='*.go' --exclude='*_test.go' >/dev/null 2>&1; then
	echo "a second checker of binary ADM is back in internal/adm:" >&2
	grep -rnE "$binforks" internal/adm --include='*.go' --exclude='*_test.go' >&2 || true
	exit 1
fi
echo "binary ADM: one checker"

# A stored record is walked once: the record walk that checks its bytes
# applies the type rules on the way and hands the store its fields
# (RecordType.ValidateFields). A second type walk over checked bytes, or the
# store checking a record and then scanning it again, brings back the walks
# that cost a Tweet about 400 ns where one costs about 190 ns
# (BenchmarkValidateEncoded), three of them over its nested user record.
if grep -rnE 'scanConforming|func conforms\(' internal/adm --include='*.go' --exclude='*_test.go' >/dev/null 2>&1 ||
	grep -rn 'ValidateEncoded(' internal/storage --include='*.go' --exclude='*_test.go' >/dev/null 2>&1; then
	echo "a second walk over a stored record is back:" >&2
	grep -rnE 'scanConforming|func conforms\(' internal/adm --include='*.go' --exclude='*_test.go' >&2 || true
	grep -rn 'ValidateEncoded(' internal/storage --include='*.go' --exclude='*_test.go' >&2 || true
	exit 1
fi
echo "adm: one record walk"

# A decode builds its value once, from slabs its check walk sized: the walk
# that checks the bytes counts the records, fields and list items, and one
# builder (builder.value) cuts them from the slabs, so a TweetGen record costs
# 14 allocations where a per-record builder costs 18. A second unchecked
# builder, or DecodeOne/Decode checking through checkOne (which counts
# nothing), brings back the per-record allocations.
decodefork='func (\([^)]*\) )?decode[[:alnum:]_]*\('
decodeBodies() {
	awk '/^func (Decode|DecodeOne)\(/ { on = 1 } on { print FILENAME ":" FNR ": " $0 } on && /^}/ { on = 0 }' internal/adm/binary.go
}
if grep -rnE "$decodefork" internal/adm --include='*.go' --exclude='*_test.go' >/dev/null 2>&1 ||
	decodeBodies | grep -q 'checkOne('; then
	echo "a second decode builder is back in internal/adm:" >&2
	grep -rnE "$decodefork" internal/adm --include='*.go' --exclude='*_test.go' >&2 || true
	decodeBodies | grep 'checkOne(' >&2 || true
	exit 1
fi
echo "adm: one decode build"

# Upserts write blind: InsertFrame reads nothing, and a stale secondary entry
# is refused at read and dropped at merge. Reading the record a frame
# replaces, to unhook that version's entries, brings back the retry that
# does not converge.
blindforks='unhookStored|linkRepeats'
if grep -rnE "$blindforks" internal/storage --include='*.go' --exclude='*_test.go' >/dev/null 2>&1; then
	echo "the read-before-write upsert is back in internal/storage:" >&2
	grep -rnE "$blindforks" internal/storage --include='*.go' --exclude='*_test.go' >&2 || true
	exit 1
fi
echo "upserts: blind"

# A socket frame leaves when its source pauses: the adaptor scans its
# connection through pauseReader, which flushes the sink before the read
# after a short one. Scanning the connection directly leaves paced records
# waiting on the collect stage's 10 ms flush tick again.
if grep -nE 'bufio\.NewScanner\(conn\)' internal/core/adaptor.go >/dev/null 2>&1; then
	echo "the socket adaptor scans its connection without the pause reader:" >&2
	grep -nE 'bufio\.NewScanner\(conn\)' internal/core/adaptor.go >&2 || true
	exit 1
fi
echo "socket frames: leave on a pause"

# An intake is one goroutine looping on Subscription.Next: frames, replays
# and the end of the stream all arrive through its subscription. A replay
# channel, a poll for pending acks or a pump goroutine brings back the gaps
# between goroutines where both at-least-once bugs of DESIGN.md *Fault
# tolerance* lived.
intakeforks='replayCh|drainPendingReplays|pumpDone'
if grep -rnE "$intakeforks" internal/core --include='*.go' --exclude='*_test.go' >/dev/null 2>&1; then
	echo "the intake's pump, replay channel or ack poll is back in internal/core:" >&2
	grep -rnE "$intakeforks" internal/core --include='*.go' --exclude='*_test.go' >&2 || true
	exit 1
fi
echo "intake: one goroutine"

# A frame is stored in one call: InsertFrame names every record it refuses,
# and the store stage puts the survivors in one more call. Re-slicing a frame
# into one-record frames brings back the retry that costs one WAL append per
# record per tree (381 for a frame of 128 with one refusal, against 3).
if grep -rnE 'Records\[[[:alnum:]_]+ *: *[[:alnum:]_]+ *\+ *1\]' internal/core --include='*.go' --exclude='*_test.go' >/dev/null 2>&1; then
	echo "a one-record re-slice of a frame is back in internal/core:" >&2
	grep -rnE 'Records\[[[:alnum:]_]+ *: *[[:alnum:]_]+ *\+ *1\]' internal/core --include='*.go' --exclude='*_test.go' >&2 || true
	exit 1
fi
# Every writer of a dataset partition opens it, and its replica, through
# core.OpenStoreTarget, by the task's partition index. Storage's
# OpenPartition takes the node's first slot in the nodegroup: wrong after a
# promotion, and it never opens the replica.
if grep -nE 'OpenPartition\(' ./*.go 2>/dev/null | grep -v '_test\.go:' >/dev/null 2>&1; then
	echo "a root-package writer opens its partition with OpenPartition again:" >&2
	grep -nE 'OpenPartition\(' ./*.go | grep -v '_test\.go:' >&2 || true
	exit 1
fi
echo "store: one call per frame, one store target"

# An acked write has left the process: the WAL writes each batch straight to
# its segment file. A buffered writer in front of the file brings back acks
# that a process crash loses, and the seal and flushes that buffer needs.
if grep -n 'bufio\.NewWriter' internal/lsm/wal.go >/dev/null 2>&1 ||
	grep -rn 'seal(' internal/lsm --include='*.go' --exclude='*_test.go' >/dev/null 2>&1; then
	echo "a buffered WAL writer or its seal is back in internal/lsm:" >&2
	grep -n 'bufio\.NewWriter' internal/lsm/wal.go >&2 || true
	grep -rn 'seal(' internal/lsm --include='*.go' --exclude='*_test.go' >&2 || true
	exit 1
fi
echo "wal: each append reaches the OS"

# A key has one filter: the blocked keyFilter that memtables and format-04
# run segments share, asked with the one hash a read takes of its key. The
# classic Bloom filter the runs kept beside it, probed from a second hash,
# let 908 of 16 000 absent-key asks read a block where the blocked filter
# lets 13 through (TestSegmentFiltersPassFewAbsentKeys).
filterforks='bloomFilter|unmarshalBloom|h1, h2'
if grep -rnE "$filterforks" internal/lsm --include='*.go' --exclude='*_test.go' >/dev/null 2>&1; then
	echo "a second key filter or its second hash is back in internal/lsm:" >&2
	grep -rnE "$filterforks" internal/lsm --include='*.go' --exclude='*_test.go' >&2 || true
	exit 1
fi
echo "lsm: one key filter"

# A block read pins the block and releases it: point reads, scans and merges
# alike go through run.pinBlock. Iterators that read misses into fresh
# buffers and never released their pins left every block a merge or a scan
# touched pinned for good (489 of 489 resident after one Merge), so later
# misses could recycle nothing (TestEveryReadReleasesItsPins).
pinforks='func \(c \*BlockCache\) put\(|func \(r \*run\) readBlock\('
if grep -rnE "$pinforks" internal/lsm --include='*.go' --exclude='*_test.go' >/dev/null 2>&1; then
	echo "a second block-read rule is back in internal/lsm:" >&2
	grep -rnE "$pinforks" internal/lsm --include='*.go' --exclude='*_test.go' >&2 || true
	exit 1
fi
echo "lsm: one pin rule"

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
	# End-to-end replication and restart tests: the promotion/resync and
	# recovery paths are the most concurrency-sensitive in the stack. The
	# socket and file adaptors ride along: they hand the pipeline copies out
	# of a scanner's buffer and a reused scratch, and a record still aliasing
	# either is a race the detector sees.
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
