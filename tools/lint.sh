#!/bin/sh
# Determinism lint — thin wrapper over gnnpart-analyze (tools/analyze/,
# DESIGN.md §13). The old grep/awk rules live on as real token-stream
# checks over a C++ lexer; run `gnnpart-analyze --list-checks` for the
# registry and README.md "Static analysis" for the check table and
# suppression comments.
#
# Usage: sh tools/lint.sh [extra gnnpart-analyze args...]
# Builds the analyzer on first use (and whenever its sources change) with
# the system compiler — no CMake configure required, so this stays usable
# as a bare pre-commit hook.
set -eu

cd "$(dirname "$0")/.."

CXX="${CXX:-c++}"
OUT_DIR="build/lint"
BIN="$OUT_DIR/gnnpart-analyze"

stale=0
if [ ! -x "$BIN" ]; then
  stale=1
else
  for f in tools/analyze/*.cc tools/analyze/*.h; do
    if [ "$f" -nt "$BIN" ]; then
      stale=1
      break
    fi
  done
fi

if [ "$stale" -eq 1 ]; then
  mkdir -p "$OUT_DIR"
  echo "lint: building gnnpart-analyze..." >&2
  "$CXX" -std=c++20 -O2 -I tools tools/analyze/*.cc -o "$BIN"
fi

exec "$BIN" --readme README.md "$@" src bench tools tests/reference
