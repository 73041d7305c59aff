#!/bin/sh
# Tier-1 verification: vet, build, then the full test suite under the race
# detector (the worker-pool runner makes every experiment grid concurrent,
# so -race is part of the baseline, not an extra). The full run covers the
# cycle-exactness golden matrix, the fault-injection and disk soaks, the
# adaptive-sampling and cluster smokes: every check runs exactly once. A short
# fuzz run of the event heap's tie order follows.
set -eu
cd "$(dirname "$0")"

go vet ./...
go build ./...
go test -race -timeout 10m ./...

# Fuzz smoke: the event heap must pop in exactly the classic heap's order,
# ties included, because the golden reports freeze that order.
go test -run '^$' -fuzz '^FuzzEventHeapOrder$' -fuzztime 10s ./internal/gpu

# Docs lint: every package documented, every exported metric name present in
# OPERATIONS.md.
./scripts/lint_docs.sh

# zateld end-to-end smoke: boot the daemon, serve a cold prediction, assert
# the identical repeat is a store hit via /metrics, exercise request ids /
# ?trace=1 / pprof / per-step histograms, SIGTERM-drain cleanly, restart to
# prove the disk warm hit, then boot a two-node fleet and prove the peer
# fetch path ("cache": "peer", zero non-owner builds).
./scripts/smoke_zateld.sh
