#!/bin/sh
# bench_compare.sh OLD.json NEW.json
#
# Compare two `vwctl bench micro --json` (vw-bench-micro/1) outputs and
# fail when any lower-is-better metric regressed by more than
# BENCH_COMPARE_THRESHOLD percent (default 20).
#
# Only metrics present in BOTH files are compared, so adding or removing
# a benchmark never fails the gate — only a shared metric getting slower
# does. Exit status: 0 ok, 1 regression(s), 2 usage/parse error.
#
# Alongside the human table, a machine-readable vw-bench-delta/1 document
# (per-metric old/new/delta_pct/verdict) is written to BENCH_DELTA_OUT
# (default bench-delta.json; set it to "" to skip) — the file
# `vwctl compare --bench-delta` folds into a campaign comparison.
set -eu

THRESHOLD="${BENCH_COMPARE_THRESHOLD:-20}"
DELTA_OUT="${BENCH_DELTA_OUT-bench-delta.json}"

if [ "$#" -ne 2 ]; then
  echo "usage: $0 OLD.json NEW.json" >&2
  exit 2
fi
OLD="$1"
NEW="$2"
for f in "$OLD" "$NEW"; do
  if [ ! -r "$f" ]; then
    echo "bench_compare: cannot read $f" >&2
    exit 2
  fi
  schema=$(jq -r '.schema // empty' "$f") || exit 2
  if [ "$schema" != "vw-bench-micro/1" ]; then
    echo "bench_compare: $f: expected schema vw-bench-micro/1, got '${schema:-none}'" >&2
    exit 2
  fi
done

# Flatten the lower-is-better metrics (all in nanoseconds) to "key value"
# lines. Throughput numbers (packets_per_sec) are deliberately skipped:
# their inverse ns_per_packet is already covered.
flatten() {
  jq -r '
    [ (.classify_ns // {} | to_entries[]
       | { key: ("classify_ns." + .key), value: .value }),
      (.classify_adversarial_ns // {} | to_entries[]
       | { key: ("classify_adversarial_ns." + .key), value: .value }),
      (.obs_ablation // {} | to_entries[]
       | select(.value | type == "object" and has("ns_per_packet"))
       | { key: ("obs_ablation." + .key + ".ns_per_packet"),
           value: .value.ns_per_packet }),
      (if (.obs_ablation.recording_ns_per_packet? // empty) != "" then
         { key: "obs_ablation.recording_ns_per_packet",
           value: .obs_ablation.recording_ns_per_packet }
       else empty end),
      (.engine // {} | to_entries[]
       | select(.value | type == "object" and has("ns_per_packet"))
       | { key: ("engine." + .key + ".ns_per_packet"),
           value: .value.ns_per_packet }),
      (if (.engine.recording_ns_per_packet? // empty) != "" then
         { key: "engine.recording_ns_per_packet",
           value: .engine.recording_ns_per_packet }
       else empty end),
      (.campaign // {} | to_entries[]
       | select(.value | type == "object" and has("wall_s"))
       | { key: ("campaign." + .key + ".wall_s"),
           value: .value.wall_s })
    ]
    | .[] | select(.value != null) | "\(.key) \(.value)"
  ' "$1"
}

old_flat=$(mktemp)
new_flat=$(mktemp)
delta_rows=$(mktemp)
trap 'rm -f "$old_flat" "$new_flat" "$old_flat.t" "$new_flat.t" "$delta_rows"' EXIT

# one "metric old new delta_pct verdict" line per compared metric,
# rendered into the vw-bench-delta/1 document at the end
delta_row() {
  printf '%s %s %s %s %s\n' "$1" "$2" "$3" "$4" "$5" >> "$delta_rows"
}
flatten "$OLD" | sort > "$old_flat"
flatten "$NEW" | sort > "$new_flat"

# Campaign wall clocks are only comparable between runs on the same core
# count driving the same number of trials; a 1-core CI baseline vs an
# 8-core laptop (or a 16-trial baseline vs 256) would flag pure
# environment skew as a regression. Drop campaign.* from the comparison
# when either differs.
old_env=$(jq -r '"\(.campaign.cores // "none") \(.campaign.trials // "none")"' "$OLD")
new_env=$(jq -r '"\(.campaign.cores // "none") \(.campaign.trials // "none")"' "$NEW")
if [ "$old_env" != "$new_env" ]; then
  echo "note: campaign.* skipped (cores/trials differ: old [$old_env] vs new [$new_env])"
  grep -v '^campaign\.' "$old_flat" > "$old_flat.t" || true
  mv "$old_flat.t" "$old_flat"
  grep -v '^campaign\.' "$new_flat" > "$new_flat.t" || true
  mv "$new_flat.t" "$new_flat"
fi

status=0
compared=0
while read -r key old_val; do
  new_val=$(awk -v k="$key" '$1 == k { print $2 }' "$new_flat")
  [ -n "$new_val" ] || continue
  compared=$((compared + 1))
  verdict=$(awk -v o="$old_val" -v n="$new_val" -v t="$THRESHOLD" 'BEGIN {
    if (o <= 0) { print "skip 0"; exit }
    pct = (n - o) / o * 100.0
    printf "%s %+.1f", (pct > t) ? "REGRESSED" : "ok", pct
  }')
  word=${verdict%% *}
  pct=${verdict#* }
  pct_json=${pct#+}
  case "$word" in
  REGRESSED)
    printf 'REGRESSED  %-45s %12s -> %12s ns  (%s%%)\n' \
      "$key" "$old_val" "$new_val" "$pct"
    delta_row "$key" "$old_val" "$new_val" "$pct_json" regressed
    status=1
    ;;
  ok)
    printf 'ok         %-45s %12s -> %12s ns  (%s%%)\n' \
      "$key" "$old_val" "$new_val" "$pct"
    delta_row "$key" "$old_val" "$new_val" "$pct_json" ok
    ;;
  skip)
    printf 'skip       %-45s old value is zero\n' "$key"
    delta_row "$key" "$old_val" "$new_val" 0 skipped
    ;;
  esac
done < "$old_flat"

if [ "$compared" -eq 0 ]; then
  echo "bench_compare: no shared metrics between $OLD and $NEW" >&2
  exit 2
fi

# Absolute overhead budget for the always-on flight recorder: the binary
# sink must stay cheap in absolute terms, not merely no-worse-than the
# committed baseline. The default (1000 ns/packet) is 2x the bench-host
# target to absorb slower CI machines; override with
# OBS_RECORDING_BUDGET_NS to tighten or loosen.
BUDGET="${OBS_RECORDING_BUDGET_NS:-1000}"
rec=$(jq -r '.obs_ablation.recording_ns_per_packet // empty' "$NEW")
if [ -n "$rec" ]; then
  budget_pct=$(awk -v r="$rec" -v b="$BUDGET" 'BEGIN { printf "%.1f", (r - b) / b * 100.0 }')
  if [ "$(awk -v r="$rec" -v b="$BUDGET" 'BEGIN { print (r > b) ? 1 : 0 }')" = 1 ]; then
    printf 'BUDGET     %-45s %12s ns  (budget %s ns)
'       "obs_ablation.recording_ns_per_packet" "$rec" "$BUDGET"
    echo "bench_compare: recording overhead exceeds OBS_RECORDING_BUDGET_NS=${BUDGET}" >&2
    delta_row "budget.recording_ns_per_packet" "$BUDGET" "$rec" "$budget_pct" regressed
    status=1
  else
    printf 'budget ok  %-45s %12s ns  (budget %s ns)
'       "obs_ablation.recording_ns_per_packet" "$rec" "$BUDGET"
    delta_row "budget.recording_ns_per_packet" "$BUDGET" "$rec" "$budget_pct" ok
  fi
fi

# Machine-readable mirror of the table above, for `vwctl compare
# --bench-delta` and any other tooling.
if [ -n "$DELTA_OUT" ]; then
  awk 'BEGIN { printf "{\"schema\":\"vw-bench-delta/1\",\"metrics\":[" }
    { printf "%s{\"metric\":\"%s\",\"old\":%s,\"new\":%s,\"delta_pct\":%s,\"verdict\":\"%s\"}",
        (NR > 1 ? "," : ""), $1, $2, $3, $4, $5 }
    END { printf "]}\n" }' "$delta_rows" > "$DELTA_OUT"
  echo "bench_compare: wrote $DELTA_OUT"
fi
if [ "$status" -ne 0 ]; then
  echo "bench_compare: regression(s) above ${THRESHOLD}% threshold" >&2
else
  echo "bench_compare: $compared shared metrics within ${THRESHOLD}%"
fi
exit "$status"
