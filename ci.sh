#!/bin/sh
# ci.sh — tier-1 verification in one command: build, vet, feedlint, tests.
# Usage: ./ci.sh [-race]  (-race appends the race-detector tier)
set -eu

go build ./...
echo "build: ok"

# The number simplicity PRs are judged by, against the previous commit.
# Informational: it never fails the run.
make -s loc REF=HEAD~1 || true

go vet ./...
echo "vet: ok"

go run ./cmd/feedlint ./...
echo "feedlint: ok"

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

go test ./...
echo "test: ok"

# bench/ is its own module, so the commands above never see it: keep the
# benchmark compiling and its own tests passing against the layers it drives.
(cd bench && go vet ./... && go test ./...)
echo "bench module: ok"

# Replay the checked-in fuzz corpora (testdata/fuzz seeds run as ordinary
# tests) for the two codecs with wire formats: ADM records (incl. the
# Transcode, ValidateEncoded, HashEncoded and AppendWithField differentials)
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
	# so the two cache hammers run twenty times over.
	go test -race -count=20 -run 'RecycledBlocks|ConcurrentReadsWithCache' ./internal/lsm/
	# End-to-end replication and restart tests: the promotion/resync and
	# recovery paths are the most concurrency-sensitive in the stack. The
	# socket and file adaptors ride along: they hand the pipeline copies out
	# of a scanner's buffer and a reused scratch, and a record still aliasing
	# either is a race the detector sees.
	go test -race -short -run '(?i)replicat|Restart|FeedMaintains|SocketAdaptor|FileFeed' .
	# The governor's load-shedding path under the race detector: the full
	# 50-seed overload sweep (the acceptance bar for the governor).
	go run -race ./cmd/feedchaos -overload -seeds 50 -records 120
	echo "race: ok"
fi
