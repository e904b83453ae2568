#!/bin/sh
# dead_exports.sh — every library export has a caller.
#
# For each `val NAME` in lib/**/*.mli (submodule signatures included),
# count the .ml/.mli files under lib/, bin/, bench/, examples/, test/ and
# e2ebench/ that contain NAME as a whole word, not counting the module's
# own .ml and .mli. A count of zero fails unless scripts/dead_exports.allow
# has a line `lib/x.mli NAME  # reason`. An allowlist line that names no
# caller-less export (the val is gone or has a caller now) fails too.
#
# Word matching can only over-count callers (a comment or an unrelated
# identifier with the same name counts as one), so an export that is used
# is never flagged. Operator vals such as `val ( + )` are not checked.
#
# Run from anywhere; exit 0 when clean, 1 listing every offending entry.
set -eu

cd "$(dirname "$0")/.."
ALLOW=scripts/dead_exports.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find lib -name '*.mli' | sort > "$tmp/mlis"
find lib bin bench examples test e2ebench \( -name '*.ml' -o -name '*.mli' \) \
  | sort > "$tmp/sources"

# "FILE:LINE:val NAME" for every exported value
xargs grep -nE '^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_]*' < "$tmp/mlis" \
  | sed -E 's/^([^:]*):([0-9]+):[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_]*).*/\1 \2 \3/' \
  > "$tmp/vals"

# "FILE WORD", once per distinct word of each source file
xargs grep -oHE '[A-Za-z0-9_]+' < "$tmp/sources" | sed 's/:/ /' | sort -u > "$tmp/words"

touch "$tmp/allow"
if [ -f "$ALLOW" ]; then cp "$ALLOW" "$tmp/allow"; fi

awk -v allowfile="$ALLOW" '
  FILENAME == ARGV[1] {
    key = $1 " " $3
    if (!(key in line)) { line[key] = $2; names[$3] = names[$3] " " $1 }
    next
  }
  FILENAME == ARGV[2] {
    if (!($2 in names)) next
    n = split(names[$2], owners, " ")
    for (i = 1; i <= n; i++) {
      own = owners[i]; sub(/\.mli$/, "", own)
      if ($1 != own ".ml" && $1 != own ".mli") callers[owners[i] " " $2]++
    }
    next
  }
  {
    if ($0 ~ /^[[:space:]]*(#|$)/) next
    entry = $1 " " $2
    if ($0 !~ /#[[:space:]]*[^[:space:]]/) {
      printf "%s:%d: %s: no reason given\n", allowfile, FNR, entry; bad = 1
    } else if (!(entry in line)) {
      printf "%s:%d: stale: %s is not exported\n", allowfile, FNR, entry; bad = 1
    } else if (callers[entry] > 0) {
      printf "%s:%d: stale: %s has %d caller file(s)\n", allowfile, FNR, entry, callers[entry]
      bad = 1
    }
    allowed[entry] = 1
  }
  END {
    for (key in line) {
      if (callers[key] > 0 || (key in allowed)) continue
      split(key, kv, " ")
      printf "%s:%d: val %s has no caller outside its module\n", kv[1], line[key], kv[2]
      bad = 1
    }
    exit bad
  }
' "$tmp/vals" "$tmp/words" "$tmp/allow" | sort -t: -k1,1 -k2,2n > "$tmp/report"

if [ -s "$tmp/report" ]; then
  cat "$tmp/report"
  echo "dead_exports: $(wc -l < "$tmp/report") offending entr(y/ies)" >&2
  exit 1
fi
echo "dead_exports: ok ($(wc -l < "$tmp/vals") exports checked)"
