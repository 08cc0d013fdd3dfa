#!/bin/sh
# Code lines per file and per crate: non-blank, non-comment lines above the
# first top-level `#[cfg(test)]` — the one count ROADMAP's simplicity gates
# use. Usage: scripts/loc.sh [dir...]   (default: crates src)
cd "$(dirname "$0")/.." || exit 1
[ $# -gt 0 ] || set -- crates src
find "$@" -path '*src/*.rs' | sort | xargs awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*($|\/\/)/ { next }
  { crate = FILENAME; sub(/\/?src\/.*/, "", crate); if (crate == "") crate = "."
    files[FILENAME]++; crates[crate]++; total++ }
  END {
    for (f in files) printf "%6d  %s\n", files[f], f | "sort -k2"
    close("sort -k2"); print ""
    for (c in crates) printf "%6d  %s\n", crates[c], c | "sort -k2"
    close("sort -k2"); printf "%6d  total\n", total
  }'
