GO ?= go

.PHONY: build test race lint vet fmt loc fuzz-adm bench-smoke watch-smoke chaos-smoke chaos-restart-smoke chaos-overload-smoke chaos ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race tier: the concurrency-heavy packages under the race detector.
# -short keeps it fast enough to run on every change.
race:
	$(GO) test -race -short ./internal/core/... ./internal/hyracks/... ./internal/lsm/... ./internal/storage/... ./internal/governor/... ./internal/chaos/...
	$(GO) test -race -short -run '(?i)replicat|Restart|FeedMaintains|SocketAdaptor|FileFeed' .

# Differential fuzzing of the ADM codecs and of the two readers of encoded
# records built on them (the hash connector, the built-in UDFs' encoded
# path), one target after another for FUZZTIME each (not part of ci.sh,
# which only replays the checked-in corpora). A finding lands under the
# package's testdata/fuzz/: commit it.
FUZZTIME ?= 30s
fuzz-adm:
	for t in FuzzSkipValue FuzzScanRecordFields FuzzTranscode FuzzValidateEncoded FuzzDecodeOne FuzzHashEncoded FuzzAppendWithField; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) ./internal/adm/ || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzKeyHashFunc$$' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzBuiltinsEncoded$$' -fuzztime $(FUZZTIME) ./internal/core/

# feedlint enforces the architecture invariants in DESIGN.md.
lint:
	$(GO) run ./cmd/feedlint ./...

vet:
	$(GO) vet ./...

# One-iteration smoke run of the in-tree benchmarks: proves the flush
# pipeline, the block-cache read path, restart and overload still execute end
# to end without paying for a full measurement. ReadPath also asserts its
# acceptance bounds (hot gets issue zero disk reads; scans read each block
# once) even at 1x. The insert path and the feed joint are priced by bench/'s
# layer replay; FeedThroughput is the only number for the at-least-once
# machinery (tracking-id column, grouped acks, sweeper) next to its untracked
# baseline.
bench-smoke:
	$(GO) test -run '^$$' -bench=FlushConcurrency -benchtime=1000x ./internal/lsm/
	$(GO) test -run '^$$' -bench=ReadPath -benchtime=1x ./internal/lsm/
	$(GO) test -run '^$$' -bench=Restart -benchtime=1x ./internal/lsm/
	$(GO) test -run '^$$' -bench=Overload -benchtime=1x .
	$(GO) test -run '^$$' -bench='FeedThroughput(Batched|AtLeastOnce)' -benchtime=300x ./internal/core/

# Observability smoke: the admin endpoints (/feeds, /metrics, pprof) and
# the `show feeds` verb against a live socket feed, plus the per-policy
# SubscriptionStats ledger invariant. Proves the feedwatch surface stays
# coherent with the metrics registry it reads from.
watch-smoke:
	$(GO) test -count=1 -run 'TestAdminEndpointsDuringLiveFeed|TestMetricsDocMatchesRegistry' .
	$(GO) test -count=1 -run 'TestSubscriptionStats|TestSubscriptionSpillError' ./internal/core/

# Chaos smoke: a 50-seed fault-injection sweep with the deterministic
# harness (internal/chaos). Every seed generates a fault schedule; the
# invariant checkers (at-least-once, index consistency, replica
# convergence, WAL replay idempotence) must hold under all of them.
# Failures print a `feedchaos -seed N -replay '...'` repro line.
chaos-smoke:
	$(GO) run ./cmd/feedchaos -seeds 50 -records 150

# Restart chaos: the same 50-seed sweep with a restart-under-fault phase —
# recovery itself is crashed (torn manifest snapshots, mid-replay faults)
# and a second clean restart must still recover exactly.
chaos-restart-smoke:
	$(GO) run ./cmd/feedchaos -restart -seeds 50 -records 150

# Overload chaos: a 50-seed governor sweep — a seeded low-priority flood
# offering several node-memory-budgets' worth of data races a high-priority
# at-least-once feed. Invariants: governor-tracked bytes stay bounded, the
# high-priority feed loses nothing, and the flood's shed ledger balances
# exactly (stored + shed + discarded == emitted).
chaos-overload-smoke:
	$(GO) run ./cmd/feedchaos -overload -seeds 50 -records 120

# Full chaos sweep: more seeds, full-size workloads. Not part of tier-1;
# run before cutting a release or after touching recovery/replay code.
chaos:
	$(GO) run ./cmd/feedchaos -seeds 500 -records 300

fmt:
	gofmt -l .

# The number a simplicity PR is judged by: non-test Go lines per package
# (bench/, examples/ and testdata/ left out) and, with REF=<git-ref>, the
# lines each package gained and lost since REF.
LOC_FILES = '*.go' ':!*_test.go' ':!bench' ':!examples' ':!*/testdata/*'
loc:
	@git ls-files -co --exclude-standard -- $(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
ifdef REF
	@echo "since $(REF):"
	@git diff --numstat $(REF) -- $(LOC_FILES) | awk '{ \
		d = $$3; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; a[d] += $$1; r[d] += $$2; ta += $$1; tr += $$2 } \
		END { for (d in a) printf "%+7d  (+%d -%d)  %s\n", a[d] - r[d], a[d], r[d], d | "sort -k4"; close("sort -k4"); \
		printf "%+7d  (+%d -%d)  total\n", ta - tr, ta, tr }'
endif

# Tier-1 verification in one command.
ci:
	./ci.sh
