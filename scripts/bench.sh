#!/usr/bin/env sh
# Records the repository's dispatch-throughput baselines:
#
#   BENCH_2.json — one full online day of maxMargin dispatch at
#     city-fleet sizes under every candidate source (sequential scan,
#     zone shards; one shard is the plain grid index). Files recorded
#     before the grid source was folded into the one-shard sharded
#     source also carry a "grid" leg.
#   BENCH_3.json — the streaming-overhead trajectory: the same day
#     drained in batch vs replayed event-by-event through the public
#     dispatch.Service, pricing the open-loop API against the engine.
#   BENCH_4.json — the streaming-batched trajectory: the same day
#     window-matched by Engine.RunBatched vs through a WithBatching
#     dispatch.Service, pricing the open-loop batched API.
#   BENCH_5.json — the window-solve trajectory: the same batched day
#     cleared by the sparse component-decomposed solve, serially and
#     with parallel component workers, with per-task allocation
#     accounting (allocs_per_task / bytes_per_task). The recorded file
#     predates the dense whole-matrix solve's move into the tests and
#     keeps its dense legs and speedup_vs_dense / alloc_cut_vs_dense
#     columns as history. This suite runs a denser day than the others
#     (windows only earn their keep holding many orders): ~40 orders
#     per 300 s window at 12k orders/day.
#   BENCH_6.json — the multi-core trajectory: the sparse windowed
#     kernel swept across GOMAXPROCS legs (1, 2, 4, and all CPUs) on
#     the same dense day, with per-decision latency percentiles
#     (p50/p95/p99/p999) alongside tasks/sec. Every leg must produce
#     bit-identical books — the sweep doubles as a concurrency
#     differential test.
#   BENCH_7.json — the oracle-rail trajectory: three online policies
#     (instant maxMargin, batched Hungarian, batched auction) on one
#     churned 12k-order day vs the hindsight optimum from the
#     warm-started sparse branch and bound, reporting revenue/served
#     regret and competitive ratio per policy per fleet size, with
#     solver wall time and allocations per component across a {1,2,4}
#     worker sweep that must stay bit-identical.
#   BENCH_8.json — the durability trajectory: the same batched day
#     replayed in-memory vs journaled through the write-ahead log under
#     each fsync policy (off / interval / always), with per-submission
#     latency percentiles and the log's on-disk size, plus Restore
#     timings per snapshot cadence. Acceptance bar: fsync=interval
#     costs ≤ 25% tasks/sec on the largest fleet. Every journaled leg
#     must settle the in-memory books — the suite doubles as a
#     crash-replay differential at bench scale.
#   BENCH_9.json — the road-network trajectory: the same batched day
#     under crow-fly vs street-graph shortest paths (the default CH
#     router with its singleflight route cache) vs network distances with a
#     live surge pricer on an airport-spiked trace. Each leg sweeps
#     shard × match-worker configurations that must stay bit-identical,
#     and the harness enforces measured circuity in [1.1, 1.6] and a
#     ≥ 90% route-cache hit rate on the largest fleet.
#   BENCH_10.json — the routing-kernel trajectory: contraction
#     hierarchies on the default Porto grid. CH preprocessing seconds,
#     cold point-to-point queries/sec for CH and its Dijkstra reference,
#     the one-to-many batch API vs a looped Dist on 15-target candidate
#     sets, and the same batched day on a cold vs warm route cache. The
#     harness enforces CH ≥ 20× Dijkstra on cold point-to-point, a > 1×
#     one-to-many speedup, and bit-identical books across cache
#     temperatures. The recorded file predates the landmark-A* kernel's
#     removal and keeps its alt legs and speedup_vs_alt as history.
#
# All are machine-readable JSON so perf changes diff against a fixed
# trajectory.
#
# Usage: scripts/bench.sh [extra `rideshare bench` flags]
# Output: BENCH_2.json through BENCH_10.json at the repository root.
#
# Extra flags apply to the dispatch run only — forwarding them to the
# streaming runs too would let a user -out/-shards override clobber the
# streaming baselines' fixed configurations (Go's flag package keeps
# the last occurrence).
set -eu
cd "$(dirname "$0")/.."
go run ./cmd/rideshare bench -out BENCH_2.json "$@"
go run ./cmd/rideshare bench -streaming -shards 4 -out BENCH_3.json
go run ./cmd/rideshare bench -batched -shards 4 -out BENCH_4.json
go run ./cmd/rideshare bench -windows -tasks 12000 -batch-window 300 -shards 4 -out BENCH_5.json
go run ./cmd/rideshare bench -windows -maxprocs 1,2,4,0 -tasks 12000 -batch-window 300 -shards 4 -out BENCH_6.json
go run ./cmd/rideshare bench -oracle -tasks 12000 -batch-window 60 -match-workers 4 -out BENCH_7.json
go run ./cmd/rideshare bench -durable -out BENCH_8.json
go run ./cmd/rideshare bench -roadnet -out BENCH_9.json
exec go run ./cmd/rideshare bench -roadnet -router -out BENCH_10.json
