#!/usr/bin/env bash
# Local CI: the exact gates a PR must pass.
#   ./scripts/ci.sh
# Offline by design — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> tier-1: cargo build --release && cargo test"
cargo build --offline --release --workspace
cargo test --offline -q --workspace

echo "==> end-to-end benchmark builds and passes its toy-size tests"
# underbench is a standalone package outside the workspace, so the
# workspace build above never compiles it; a library signature change
# that breaks it must fail here, not when the benchmark next runs.
cargo test --offline --manifest-path crates/bench/src/bin/underbench/Cargo.toml

echo "==> full-scale churn acceptance (release-only sizing)"
cargo test --offline --release -q -p underradar-ids --lib one_million_flow_churn

echo "==> engine equivalence (grouped/DFA hot path vs reference semantics)"
# Property-driven: random rulesets and packet schedules through the
# production engine and a naive evaluate-everything reference; alert
# output must be byte-identical (see crates/ids/tests/engine_equiv.rs).
cargo test --offline --release -q -p underradar-ids --test engine_equiv

echo "==> pooled-world equivalence (reset worlds vs fresh worlds, release-sized)"
# Property-driven: random attempt sequences through one worker's world
# pool must give, attempt by attempt, the row, registry, trace, exposure
# and world state a freshly built world gives (crates/campaign/src/
# engine.rs); random small campaigns through the run service must match
# a fresh-world reference however they run (crates/runner/tests/
# pipeline_identity.rs). Release builds run 10x and 4x the debug cases.
cargo test --offline --release -q -p underradar-campaign --lib pooled_worlds_match_fresh_worlds
cargo test --offline --release -q -p underradar-runner --test pipeline_identity

echo "==> perf bench + snapshot schema (all acceptance bounds; BENCH_perf.json drift)"
# The committed snapshot pins the bench *schema* — the set of quoted
# strings (bench names + JSON keys); timings drift run to run and are
# not compared. An unfiltered bench run rewrites the file in place, so
# stash the committed copy first and restore it after the check.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cp BENCH_perf.json "$tmpdir/BENCH_perf.committed.json"
cargo bench --offline -p underradar-bench --bench perf
grep -o '"[^"]*"' "$tmpdir/BENCH_perf.committed.json" | sort > "$tmpdir/schema_committed"
grep -o '"[^"]*"' BENCH_perf.json | sort > "$tmpdir/schema_fresh"
if ! diff -u "$tmpdir/schema_committed" "$tmpdir/schema_fresh"; then
  echo "BENCH_perf.json schema drifted: re-run 'cargo bench --bench perf' and commit the new snapshot" >&2
  cp "$tmpdir/BENCH_perf.committed.json" BENCH_perf.json
  exit 1
fi
cp "$tmpdir/BENCH_perf.committed.json" BENCH_perf.json

echo "==> e14 population-scale smoke (120k flows; batch + 1-vs-4-shard identity internal)"
# The experiment itself asserts flow residency under the per-flow byte
# budget, batched-vs-per-packet verdict identity, and 1-vs-4-shard merged
# output identity; stdout is deterministic (throughput goes to stderr),
# so a double run pins report byte-stability too.
./target/release/underradar experiments e14 > "$tmpdir/e14_a.txt" 2>/dev/null
./target/release/underradar experiments e14 > "$tmpdir/e14_b.txt" 2>/dev/null
cmp "$tmpdir/e14_a.txt" "$tmpdir/e14_b.txt"
grep -q "batched vs per-packet verdicts: identical" "$tmpdir/e14_a.txt"
grep -q "shard merged output: byte-identical" "$tmpdir/e14_a.txt"
grep -q "PASSED" "$tmpdir/e14_a.txt"

echo "==> e13 divergence-matrix smoke (35-cell golden; 1-vs-4-shard verdict identity)"
# The matrix sweep is fully deterministic (seeded impairments, trace time
# = schedule position), so a double run pins report byte-stability, the
# golden line pins the divergence count, and the shard line pins that
# worker count cannot change campaign verdicts.
./target/release/underradar experiments e13 > "$tmpdir/e13_a.txt" 2>/dev/null
./target/release/underradar experiments e13 > "$tmpdir/e13_b.txt" 2>/dev/null
cmp "$tmpdir/e13_a.txt" "$tmpdir/e13_b.txt"
grep -q "divergence matrix: 35 cells, 30 verdict flips" "$tmpdir/e13_a.txt"
grep -q "1-vs-4-shard verdicts: byte-identical" "$tmpdir/e13_a.txt"
grep -q "PASSED" "$tmpdir/e13_a.txt"

echo "==> campaign determinism smoke (sequential vs 4-shard byte identity)"
./target/release/underradar campaign --json --shards 1 > "$tmpdir/campaign_1.json"
./target/release/underradar campaign --json --shards 4 > "$tmpdir/campaign_4.json"
cmp "$tmpdir/campaign_1.json" "$tmpdir/campaign_4.json"
# Every packet reaches its node as its own event, and every event samples
# the queue depth once: the histogram's count must equal the events run.
events=$(grep -o '"netsim.events_processed":[0-9]*' "$tmpdir/campaign_1.json" | cut -d: -f2)
depth=$(grep -o '"netsim.queue.depth":{"count":[0-9]*' "$tmpdir/campaign_1.json" | cut -d: -f3)
if [ -z "$events" ] || [ "$events" != "$depth" ]; then
  echo "netsim.queue.depth count ($depth) != netsim.events_processed ($events)" >&2
  exit 1
fi
# Every event is a delivery, a timer or a transmit: the per-kind counts
# (exported even when zero) must sum to the events run.
kinds=0
for kind in deliver timer transmit; do
  n=$(grep -o "\"netsim.events.$kind\":[0-9]*" "$tmpdir/campaign_1.json" | cut -d: -f2 || true)
  if [ -z "$n" ]; then
    echo "netsim.events.$kind missing from campaign --json" >&2
    exit 1
  fi
  kinds=$((kinds + n))
done
if [ "$kinds" != "$events" ]; then
  echo "netsim.events.{deliver,timer,transmit} sum to $kinds, not netsim.events_processed ($events)" >&2
  exit 1
fi

echo "==> restored --json smoke (every trial restored from decoded journal deltas)"
# The first run journals all 512 trials; the second restores every one of
# them, so its report, rows and telemetry (every censor event included)
# come only from decoded journal records. Both must match the clean run.
./target/release/underradar campaign --json --checkpoint "$tmpdir/json.journal" \
  > "$tmpdir/campaign_journal_a.json" 2>/dev/null
./target/release/underradar campaign --json --checkpoint "$tmpdir/json.journal" \
  > "$tmpdir/campaign_journal_b.json" 2> "$tmpdir/campaign_journal_b.err"
cmp "$tmpdir/campaign_1.json" "$tmpdir/campaign_journal_a.json"
cmp "$tmpdir/campaign_1.json" "$tmpdir/campaign_journal_b.json"
grep -q 'service: 0 executed, 512 restored' "$tmpdir/campaign_journal_b.err"

echo "==> index-order row smoke (--jsonl without --service, 1 vs 4 shards byte identity)"
./target/release/underradar campaign --jsonl --shards 1 > "$tmpdir/campaign_rows_1.jsonl"
./target/release/underradar campaign --jsonl --shards 4 > "$tmpdir/campaign_rows_4.jsonl"
cmp "$tmpdir/campaign_rows_1.jsonl" "$tmpdir/campaign_rows_4.jsonl"

echo "==> impairment determinism smoke (reorder/duplicate knobs, 1 vs 4 shards)"
./target/release/underradar campaign --impair --json --shards 1 > "$tmpdir/campaign_impair_1.json"
./target/release/underradar campaign --impair --json --shards 4 > "$tmpdir/campaign_impair_4.json"
cmp "$tmpdir/campaign_impair_1.json" "$tmpdir/campaign_impair_4.json"
if cmp -s "$tmpdir/campaign_1.json" "$tmpdir/campaign_impair_1.json"; then
  echo "impairment knobs had no effect on the campaign output" >&2
  exit 1
fi

echo "==> flight-recorder smoke (--trace: report unchanged, shard-stable, chains non-empty)"
./target/release/underradar campaign --shards 1 > "$tmpdir/campaign_plain.txt"
./target/release/underradar campaign --trace --shards 1 > "$tmpdir/campaign_trace_1.txt"
./target/release/underradar campaign --trace --shards 4 > "$tmpdir/campaign_trace_4.txt"
# Tracing is additive: the traced output must start with the exact bytes
# of the untraced report (so leaving --trace off can never change results),
# and must itself be byte-identical across shard counts.
plain_bytes=$(wc -c < "$tmpdir/campaign_plain.txt")
head -c "$plain_bytes" "$tmpdir/campaign_trace_1.txt" | cmp - "$tmpdir/campaign_plain.txt"
cmp "$tmpdir/campaign_trace_1.txt" "$tmpdir/campaign_trace_4.txt"
# Every non-Inconclusive verdict must come with a non-empty causal chain:
# the explainer may answer "because=no-recorded-decisions" only for
# inconclusive trials.
awk '
  /^--- explain ---$/ { in_explain = 1; next }
  in_explain && /^trial=/ {
    chains++
    if ($0 !~ /verdict=inconclusive/ && $0 ~ /because=no-recorded-decisions/) {
      print "unexplained verdict: " $0; bad = 1
    }
  }
  END {
    if (chains == 0) { print "no explainer chains in traced output"; exit 1 }
    print "explainer chains: " chains
    exit bad
  }
' "$tmpdir/campaign_trace_1.txt"

echo "==> wall-clock profile smoke (--profile-json: side file only, stdout untouched)"
# The run profile is host time; it goes to its own file and must never
# reach stdout, so the profiled run prints the plain run's exact bytes.
./target/release/underradar campaign --shards 1 --profile-json "$tmpdir/profile.json" \
  > "$tmpdir/campaign_profiled.txt"
cmp "$tmpdir/campaign_plain.txt" "$tmpdir/campaign_profiled.txt"
grep -q '"wall_ms"' "$tmpdir/profile.json"
grep -q '"worker_busy_ns"' "$tmpdir/profile.json"

echo "==> run-service smoke (--service vs default run; 1 vs 8 workers byte identity)"
./target/release/underradar campaign --service --shards 1 > "$tmpdir/service_1.txt" 2>/dev/null
./target/release/underradar campaign --service --shards 8 > "$tmpdir/service_8.txt" 2>/dev/null
cmp "$tmpdir/campaign_plain.txt" "$tmpdir/service_1.txt"
cmp "$tmpdir/service_1.txt" "$tmpdir/service_8.txt"

echo "==> closed-pipe smoke (a failed row sink ends the run with status 1, never a hang)"
# head closes stdout after 100 bytes; the streamed rows then fail to
# write, and the binary must report it and exit 1 on its own, long
# before timeout's 124.
set +o pipefail
timeout 60 ./target/release/underradar campaign --jsonl --service --shards 2 \
  2> "$tmpdir/closed_pipe.err" | head -c 100 > /dev/null
status=${PIPESTATUS[0]}
set -o pipefail
if [ "$status" != 1 ]; then
  echo "campaign into a closed pipe exited $status, not 1" >&2
  exit 1
fi
grep -q '^campaign run failed: row sink I/O error: ' "$tmpdir/closed_pipe.err"

echo "==> safety-audit smoke (--audit: double run, 1-vs-4-shard and service-vs-batch identity)"
# The exposure ledger rides the merged telemetry registry, so the audit
# inherits the campaign's determinism contract: byte-identical for any
# shard count and with or without --service. The paper
# matrix must also surface at least one declared-vs-observed divergence
# (a cell that declares itself fully evaded while the adversary holds
# attributable events).
./target/release/underradar campaign --audit > "$tmpdir/audit_a.txt" 2>/dev/null
./target/release/underradar campaign --audit > "$tmpdir/audit_b.txt" 2>/dev/null
cmp "$tmpdir/audit_a.txt" "$tmpdir/audit_b.txt"
./target/release/underradar campaign --audit --shards 4 > "$tmpdir/audit_4.txt" 2>/dev/null
cmp "$tmpdir/audit_a.txt" "$tmpdir/audit_4.txt"
./target/release/underradar campaign --audit --service --shards 8 > "$tmpdir/audit_svc.txt" 2>/dev/null
cmp "$tmpdir/audit_a.txt" "$tmpdir/audit_svc.txt"
grep -q '^divergence: ' "$tmpdir/audit_a.txt"
# Auditing is additive: the plain report's exact bytes lead the output.
head -c "$plain_bytes" "$tmpdir/audit_a.txt" | cmp - "$tmpdir/campaign_plain.txt"

echo "==> crash-resume smoke (SIGKILL mid-run, resume from journal, byte identity vs clean run)"
# A synthetic matrix big enough that the kill lands mid-run (~5s clean on
# CI hardware); the resumed run must both restore journaled trials and
# execute the remainder, and its stdout must match the uninterrupted run.
n=30000
./target/release/underradar campaign --service --synthetic "$n" --shards 4 > "$tmpdir/service_clean.txt" 2>/dev/null
./target/release/underradar campaign --service --synthetic "$n" --shards 4 \
  --checkpoint "$tmpdir/ckpt.journal" > /dev/null 2>&1 &
victim=$!
sleep 1.5
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
./target/release/underradar campaign --service --synthetic "$n" --shards 4 \
  --checkpoint "$tmpdir/ckpt.journal" > "$tmpdir/service_resumed.txt" 2> "$tmpdir/service_resumed.err"
cmp "$tmpdir/service_clean.txt" "$tmpdir/service_resumed.txt"
grep -E 'service: [0-9]+ executed, [0-9]+ restored' "$tmpdir/service_resumed.err"
if grep -qE 'service: 0 executed|service: [0-9]+ executed, 0 restored' "$tmpdir/service_resumed.err"; then
  echo "crash-resume smoke did not exercise a mid-run kill (adjust n or the sleep)" >&2
  exit 1
fi

echo "==> telemetry crash-resume smoke (--json: SIGKILL mid-run, resume, byte identity)"
# The same kill with telemetry on: the resumed run's merged registry
# mixes deltas decoded from the journal (names) with deltas its workers
# hand over (interned ids), and its --json envelope must still be the
# uninterrupted run's exact bytes.
./target/release/underradar campaign --json --service --synthetic "$n" --shards 4 \
  > "$tmpdir/json_clean.json" 2>/dev/null
./target/release/underradar campaign --json --service --synthetic "$n" --shards 4 \
  --checkpoint "$tmpdir/json_ckpt.journal" > /dev/null 2>&1 &
victim=$!
sleep 1
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
./target/release/underradar campaign --json --service --synthetic "$n" --shards 4 \
  --checkpoint "$tmpdir/json_ckpt.journal" > "$tmpdir/json_resumed.json" 2> "$tmpdir/json_resumed.err"
cmp "$tmpdir/json_clean.json" "$tmpdir/json_resumed.json"
grep -E 'service: [0-9]+ executed, [0-9]+ restored' "$tmpdir/json_resumed.err"
if grep -qE 'service: 0 executed|service: [0-9]+ executed, 0 restored' "$tmpdir/json_resumed.err"; then
  echo "telemetry crash-resume smoke did not exercise a mid-run kill (adjust n or the sleep)" >&2
  exit 1
fi
rm -f "$tmpdir/json_ckpt.journal"

echo "==> progress smoke (--progress: snapshots stream on stderr, stdout untouched)"
# Interval snapshots go to stderr only; stdout must be byte-identical to
# the silent run of the same matrix (service_clean.txt from above).
./target/release/underradar campaign --service --synthetic "$n" --shards 4 --progress=5000 \
  > "$tmpdir/progress_on.txt" 2> "$tmpdir/progress_on.err"
cmp "$tmpdir/service_clean.txt" "$tmpdir/progress_on.txt"
grep -q '"rows_per_sec"' "$tmpdir/progress_on.err"
# Wall-clock snapshot values must not reach the telemetry registry either:
# the --json envelope is the silent run's exact bytes (campaign_1.json).
./target/release/underradar campaign --json --progress=100 --shards 4 \
  > "$tmpdir/progress_json.json" 2>/dev/null
cmp "$tmpdir/campaign_1.json" "$tmpdir/progress_json.json"

echo "CI green"
