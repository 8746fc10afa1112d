#!/usr/bin/env bash
# Byte-compare this tree's release outputs against revision REV's.
#   ./scripts/cmp_parent.sh REV        (e.g. HEAD~)
#
# Builds REV's release `underradar` (and the deterministic examples)
# offline from a `git archive` export in a temp dir, with its own
# CARGO_TARGET_DIR, builds this tree's, then runs every deterministic
# smoke with both and `cmp`s their stdout (and the pcap file) and their
# exit statuses. Prints one line per output and exits non-zero if any
# differ. A refactor meant to move no byte should report every line `same`.
#
# It builds the workspace twice, so it is not part of scripts/ci.sh.
set -euo pipefail
rev="${1:?usage: scripts/cmp_parent.sh REV}"
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/src" "$tmp/old/examples" "$tmp/new/examples"
# Examples whose stdout is a pure function of their seeds.
examples=(ttl_calibration quickstart mvr_explorer country_survey)
example_args=()
for ex in "${examples[@]}"; do example_args+=(--example "$ex"); done
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$tmp/src"

echo "==> building $rev in $tmp/src" >&2
(cd "$tmp/src" && CARGO_TARGET_DIR="$tmp/target" \
  cargo build --offline --release -q --bin underradar "${example_args[@]}")
echo "==> building the working tree" >&2
cargo build --offline --release -q --bin underradar "${example_args[@]}"

old_bin="$tmp/target/release"
new_bin="$PWD/target/release"

# name | argv. Each runs in its side's own directory, so relative output
# paths (journals, pcaps) never collide.
smokes=(
  "campaign|campaign"
  "campaign-json|campaign --json"
  "campaign-jsonl|campaign --jsonl"
  "campaign-impair|campaign --impair --json"
  "campaign-trace|campaign --trace"
  "campaign-service|campaign --service --shards 4"
  "campaign-service-jsonl|campaign --service --jsonl --shards 1"
  "campaign-audit|campaign --audit"
  "campaign-audit-json|campaign --audit=json"
  "campaign-telemetry|campaign --telemetry"
  "campaign-journal-first|campaign --json --checkpoint run.journal"
  "campaign-journal-restored|campaign --json --checkpoint run.journal"
  "experiments|experiments all"
  "experiments-json|experiments all --json"
  "experiments-jsonl|experiments all --jsonl"
  "experiments-telemetry|experiments all --telemetry"
  "experiments-trace|experiments all --trace"
  "survey|survey --domains twitter.com,bbc.com,example.org --block twitter.com"
  "calibrate|calibrate"
  "pcap|pcap demo.pcap"
)

run() { # side program argv... (stdout passes through; exit status in $status)
  local side="$1" program="$2"
  shift 2
  status=0
  (cd "$tmp/$side" && "$program" "$@" 2>/dev/null) || status=$?
}

differ=0
report() { # name file_a file_b [status_a status_b]
  if [ ! -s "$2" ] || [ ! -s "$3" ]; then
    echo "EMPTY   $1"
    differ=1
  elif ! cmp -s "$2" "$3"; then
    echo "DIFFER  $1"
    differ=1
  elif [ "${4:-}" != "${5:-}" ]; then
    echo "DIFFER  $1 (exit $4 vs $5)"
    differ=1
  else
    echo "same    $1 ($(wc -c < "$2") bytes${4:+, exit $4})"
  fi
}

compare() { # name old_program new_program argv...
  local name="$1" old="$2" new="$3" old_status
  shift 3
  run old "$old" "$@" > "$tmp/old/$name.out"
  old_status=$status
  run new "$new" "$@" > "$tmp/new/$name.out"
  report "$name" "$tmp/old/$name.out" "$tmp/new/$name.out" "$old_status" "$status"
}

for smoke in "${smokes[@]}"; do
  read -r -a argv <<< "${smoke#*|}"
  compare "${smoke%%|*}" "$old_bin/underradar" "$new_bin/underradar" "${argv[@]}"
done
report "pcap-file" "$tmp/old/demo.pcap" "$tmp/new/demo.pcap"

for ex in "${examples[@]}"; do
  compare "examples/$ex" "$old_bin/examples/$ex" "$new_bin/examples/$ex"
done

exit "$differ"
