#!/bin/sh
# Code lines per file and per crate: non-blank, non-comment lines above the
# first top-level `#[cfg(test)]` — the one count ROADMAP's simplicity gates
# use.
#
#   scripts/loc.sh [dir...]              per file, per crate and total (default: crates src)
#   scripts/loc.sh --base REV [dir...]   per crate and total: REV, this tree, and the delta
#
# --base exports REV's tree with `git archive` into a temporary directory and
# counts both trees the same way, so a before/after needs no second checkout.
cd "$(dirname "$0")/.." || exit 1

# loc files|crates DIR...: the count per file and per crate, or per crate
# only; either way ending in the total.
loc() {
    detail=$1
    shift
    find "$@" -path '*src/*.rs' 2>/dev/null | sort | xargs awk -v detail="$detail" '
      FNR == 1 { in_tests = 0 }
      /^#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests || /^[[:space:]]*($|\/\/)/ { next }
      { crate = FILENAME; sub(/\/?src\/.*/, "", crate); if (crate == "") crate = "."
        files[FILENAME]++; crates[crate]++; total++ }
      END {
        if (detail == "files") {
          for (f in files) printf "%6d  %s\n", files[f], f | "sort -k2"
          close("sort -k2"); print ""
        }
        for (c in crates) printf "%6d  %s\n", crates[c], c | "sort -k2"
        close("sort -k2"); printf "%6d  total\n", total
      }'
}

if [ "$1" != --base ]; then
    [ $# -gt 0 ] || set -- crates src
    loc files "$@"
    exit
fi
if [ $# -lt 2 ]; then
    sed -n '6,7p' "$0" >&2
    exit 2
fi
rev=$2
shift 2
[ $# -gt 0 ] || set -- crates src
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
    echo "loc.sh: no such revision: $rev" >&2
    exit 2
}
base=$(mktemp -d) || exit 1
trap 'rm -rf "$base"' EXIT
git archive "$rev" | tar -x -C "$base" || exit 1
{
    (cd "$base" && loc crates "$@") | sed 's/^/before /'
    loc crates "$@" | sed 's/^/after /'
} | awk '
  { seen[$3] = 1; n[$1, $3] = $2 }
  END {
    printf "%8s %8s %8s\n", "before", "after", "delta"
    for (c in seen) if (c != "total")
      printf "%8d %8d %+8d  %s\n", n["before", c], n["after", c], n["after", c] - n["before", c], c | "sort -k4"
    close("sort -k4")
    printf "%8d %8d %+8d  total\n", n["before", "total"], n["after", "total"], n["after", "total"] - n["before", "total"]
  }'
