#!/bin/sh
# dead_exports.sh — every library export has a caller.
#
# Each `val NAME` in lib/**/*.mli is qualified by its module M (the .mli's
# capitalized basename), and by the submodule S when it sits in a
# `module S : sig … end` signature (Wire.R.at_end, Http.Server.stop). A
# .ml/.mli file under lib/, bin/, bench/, examples/, test/ or e2ebench/,
# other than M's own .ml and .mli, is a caller of `M.NAME` when
#
#   - it names `M.NAME`, on its own or at the end of a longer path
#     (`Vw_core.M.NAME`), directly or through a module alias
#     (`module X = Vw_core.M` then `X.NAME`); or
#   - it opens or includes M (`open`, `let open … in`, `include`,
#     `M.( … )`) and names NAME.
#
# An export with no caller fails unless scripts/dead_exports.allow has a
# line `lib/x.mli NAME  # reason` (NAME is `S.NAME` inside a submodule
# signature). An allowlist line without a reason, or one that names no
# caller-less export (the val is gone or has a caller now), fails too.
#
# Comments and string literals name nothing. An open is taken to cover
# its whole file, which can only over-count callers. Operator vals such
# as `val ( + )` are not checked.
#
# Run from anywhere; exit 0 when clean, 1 listing every offending entry.
set -eu

cd "$(dirname "$0")/.."
ALLOW=scripts/dead_exports.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# code(LINE): LINE with its comments and string literals blanked out. The
# lexer state (comment depth, inside a string or a {| |} string) carries
# across lines; character literals '"' and '\"' are not strings.
LEX='
  function code(s,   out, i, j, t) {
    out = ""
    while (s != "") {
      if (instr) {
        i = index(s, "\""); j = index(s, "\\")
        if (j > 0 && (i == 0 || j < i)) { s = substr(s, j + 2); continue }
        if (i == 0) return out
        s = substr(s, i + 1); instr = 0; out = out " "
      } else if (inq) {
        i = index(s, "|}")
        if (i == 0) return out
        s = substr(s, i + 2); inq = 0; out = out " "
      } else if (cdepth > 0) {
        if (!match(s, /\(\*|\*\)/)) return out
        t = substr(s, RSTART, 2); s = substr(s, RSTART + 2)
        cdepth += (t == "(*") ? 1 : -1
        if (cdepth == 0) out = out " "
      } else {
        if (!match(s, lexre)) return out s
        t = substr(s, RSTART, RLENGTH)
        out = out substr(s, 1, RSTART - 1) " "
        s = substr(s, RSTART + RLENGTH)
        if (t == "(*") cdepth = 1
        else if (t == "\"") instr = 1
        else if (t == "{|") inq = 1
      }
    }
    return out
  }
  BEGIN { lexre = "\\(\\*|\"|\\{\\||" q "\\\\?\"" q }
  FNR == 1 { cdepth = 0; instr = 0; inq = 0 }
'

find lib -name '*.mli' | sort > "$tmp/mlis"
find lib bin bench examples test e2ebench \( -name '*.ml' -o -name '*.mli' \) \
  | sort > "$tmp/sources"

# "FILE LINE QUALIFIED-NAME" for every exported value, where the qualified
# name is M.NAME or M.S.NAME
xargs awk -v q="'" "$LEX"'
  FNR == 1 {
    m = FILENAME; sub(/^.*\//, "", m); sub(/\.mli$/, "", m)
    path[0] = toupper(substr(m, 1, 1)) substr(m, 2); depth = 0
  }
  { $0 = code($0) }
  /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*sig([ \t]|$)/ {
    s = $0; sub(/^[ \t]*module[ \t]+/, "", s); sub(/[ \t]*:.*/, "", s)
    depth++; path[depth] = path[depth - 1] "." s
    next
  }
  depth > 0 && /^[ \t]*end([ \t]|$)/ { depth--; next }
  /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_]*/ {
    v = $0; sub(/^[ \t]*val[ \t]+/, "", v); sub(/[^A-Za-z0-9_].*/, "", v)
    print FILENAME, FNR, path[depth] "." v
  }
' < "$tmp/mlis" > "$tmp/vals"

# "FILE QUALIFIED-NAME" for every qualified name each source file uses,
# once per file: every path it names, aliases expanded, and every name it
# reaches through an open, each with all its shorter suffixes (a use of
# Vw_fsl.Wire.R.at_end is also one of Wire.R.at_end and R.at_end)
xargs awk -v q="'" "$LEX"'
  function expand(p,   c, rest, hops) {
    # replace a leading alias by its target, following alias chains
    for (hops = 0; hops < 8; hops++) {
      c = p; sub(/\..*/, "", c)
      if (!(c in alias) || alias[c] == c) break
      rest = substr(p, length(c) + 1)
      p = alias[c] rest
    }
    return p
  }
  function emit(p, n,   k, comps, i, j, s) {
    k = split(p, comps, ".")
    for (i = 1; i <= k; i++) {
      s = comps[i]
      for (j = i + 1; j <= k; j++) s = s "." comps[j]
      used[s "." n] = 1
    }
  }
  function flush(   t, o, w, k, p, n) {
    if (file == "") return
    for (t in quals) {
      p = t; sub(/\.[^.]*$/, "", p); n = substr(t, length(p) + 2)
      emit(expand(p), n)
      for (o in opens) emit(expand(o) "." p, n)
    }
    for (o in opens) for (w in words) emit(expand(o), w)
    for (k in used) print file, k
    delete used; delete quals; delete opens; delete words; delete alias
  }
  BEGIN { chunk = "[A-Za-z_][A-Za-z0-9_" q ".]*" }
  FNR == 1 { flush(); file = FILENAME }
  {
    line = code($0)
    # module X = A.B.C (an alias; a functor application counts as one too)
    s = line
    while (match(s, /module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*/)) {
      m = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
      sub(/^module[ \t]+/, "", m)
      x = m; sub(/[ \t]*=.*/, "", x)
      p = m; sub(/^[^=]*=[ \t]*/, "", p); sub(/\.$/, "", p)
      alias[x] = p
    }
    s = line
    while (match(s, /(open!?|include)[ \t]+[A-Z][A-Za-z0-9_.]*/)) {
      m = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
      sub(/^[a-z!]+[ \t]+/, "", m); sub(/\.$/, "", m)
      opens[m] = 1
    }
    # identifier chunks: A.B.name, name, r.field, M.( … )
    s = line
    while (match(s, chunk)) {
      m = substr(s, RSTART, RLENGTH)
      nextc = substr(s, RSTART + RLENGTH, 1)
      s = substr(s, RSTART + RLENGTH)
      k = split(m, comps, ".")
      if (comps[1] ~ /^[a-z_]/) words[comps[1]] = 1
      p = ""
      for (i = 1; i <= k; i++) {
        c = comps[i]
        if (c ~ /^[A-Z]/) p = (p == "" ? c : p "." c)
        else if (c != "") {
          if (p != "") quals[p "." c] = 1
          p = ""
        }
      }
      # a chunk ending in a module path and a dot before "(" is a local open
      if (substr(m, length(m), 1) == "." && nextc == "(" && p != "") opens[p] = 1
    }
  }
  END { flush() }
' < "$tmp/sources" | sort -u > "$tmp/uses"

touch "$tmp/allow"
if [ -f "$ALLOW" ]; then cp "$ALLOW" "$tmp/allow"; fi

awk -v allowfile="$ALLOW" '
  FILENAME == ARGV[1] {
    # reported name: the val name, prefixed by its submodule if any
    name = $3; sub(/^[^.]*\./, "", name)
    key = $1 " " name
    if (!(key in line)) {
      line[key] = $2
      owner = $1; sub(/\.mli$/, "", owner)
      keys[$3] = keys[$3] " " key; own[key] = owner
    }
    next
  }
  FILENAME == ARGV[2] {
    if (!($2 in keys)) next
    n = split(keys[$2], ks, " ")
    for (i = 1; i < n; i += 2) {
      key = ks[i] " " ks[i + 1]
      if ($1 != own[key] ".ml" && $1 != own[key] ".mli") callers[key]++
    }
    next
  }
  {
    if ($0 ~ /^[ \t]*(#|$)/) next
    entry = $1 " " $2
    if ($0 !~ /#[ \t]*[^ \t]/) {
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
' "$tmp/vals" "$tmp/uses" "$tmp/allow" | sort -t: -k1,1 -k2,2n > "$tmp/report"

if [ -s "$tmp/report" ]; then
  cat "$tmp/report"
  echo "dead_exports: $(wc -l < "$tmp/report") offending entr(y/ies)" >&2
  exit 1
fi
echo "dead_exports: ok ($(wc -l < "$tmp/vals") exports checked)"
