#!/bin/sh
# Escape-analysis gate over the //fp:hotpath roots: the runtime half of
# the fphotpath contract. `cmd/fpvet -hotpath-ranges` prints the source
# range of every annotated per-frame function; this script intersects
# those ranges with the compiler's escape analysis (-gcflags=-m) and
# compares the result against the checked-in expectation,
# scripts/escape_gate.expect — which pins every hot-path root at zero
# heap escapes.
#
# If the gate fails, either the new escape is a regression (fix it), or
# it is a deliberate, amortised allocation that fphotpath already
# accepts via //fp:allocok — in which case re-run with -update and
# commit the new expectation alongside the justification (-update keeps
# the file's leading comment block and rewrites only the entries):
#
#   scripts/escape_gate.sh [-update]
set -eu

cd "$(dirname "$0")/.."

expect="scripts/escape_gate.expect"
update=false
[ "${1:-}" = "-update" ] && update=true

ranges="$(mktemp)"
escapes="$(mktemp)"
observed="$(mktemp)"
expected="$(mktemp)"
header="$(mktemp)"
trap 'rm -f "$ranges" "$escapes" "$observed" "$expected" "$header"' EXIT

go run ./cmd/fpvet -hotpath-ranges ./... > "$ranges"
[ -s "$ranges" ] || { echo "escape_gate: no //fp:hotpath ranges found" >&2; exit 1; }

# The compiler replays cached diagnostics, so this is cheap after the
# first build. -gcflags without a pattern applies only to the packages
# named on the command line, keeping vendor/ and the stdlib out.
go build -gcflags='-m=1' ./... 2>&1 \
  | grep -E 'escapes to heap|moved to heap' > "$escapes" || true

awk '
  NR == FNR {
    split($1, loc, ":")
    n++; file[n] = loc[1]; start[n] = loc[2] + 0; end[n] = loc[3] + 0
    fname[n] = $2
    next
  }
  {
    split($1, loc, ":")
    for (i = 1; i <= n; i++) {
      if (loc[1] == file[i] && loc[2] + 0 >= start[i] && loc[2] + 0 <= end[i]) {
        print fname[i] " " $0
      }
    }
  }
' "$ranges" "$escapes" | LC_ALL=C sort > "$observed"

if $update; then
  # Keep the existing file's leading comment block — the hand-written
  # justification of every sanctioned escape — and replace only the
  # entries beneath it. A missing or comment-less file gets the default
  # header.
  [ -f "$expect" ] && awk '/^#/ { print; next } { exit }' "$expect" > "$header"
  if [ ! -s "$header" ]; then
    {
      echo "# Heap escapes inside //fp:hotpath function ranges, as reported by"
      echo "# go build -gcflags=-m. Maintained by scripts/escape_gate.sh -update;"
      echo "# any new entry needs a review-visible justification here."
    } > "$header"
  fi
  cat "$header" "$observed" > "$expect"
  echo "escape_gate: wrote $(grep -cv '^#' "$expect" || true) expectation(s) to $expect"
  exit 0
fi

[ -f "$expect" ] || { echo "escape_gate: missing $expect (run with -update to create it)" >&2; exit 1; }

grep -v '^#' "$expect" > "$expected" || true
if ! diff -u "$expected" "$observed"; then
  echo "escape_gate: hot-path escapes differ from $expect (see diff above)" >&2
  echo "escape_gate: fix the regression, or justify it and re-run with -update" >&2
  exit 1
fi
echo "escape_gate: $(wc -l < "$ranges" | tr -d ' ') hot-path ranges, $(wc -l < "$observed" | tr -d ' ') expected escape(s) — clean"
