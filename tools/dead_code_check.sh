#!/usr/bin/env bash
# Dead-code audit for libspire: lists global library functions that no
# program of the repository links.
#
# Every target (spirec, the tests, benches and examples, plus the
# end-to-end benchmark's spire_e2e) is built at -O0 -fno-inline with one
# section per function and linked with --gc-sections, so a binary keeps
# exactly the library functions reachable from its code. A global text
# symbol of libspire.a that is defined in none of the binaries is
# unreferenced. Destructor variants (D0/D1/D2) are allowlisted: the ABI
# emits all of them and a program needs only the ones it calls.
#
# usage: tools/dead_code_check.sh [build-dir]
#   build-dir defaults to build-deadcode/ at the repository root.
#   JOBS (default 2) sets the build parallelism.
# Exits 0 when every library function is referenced, 1 otherwise, and
# prints the unreferenced functions demangled.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-$ROOT/build-deadcode}
JOBS=${JOBS:-2}

# e2ebench/CMakeLists.txt pulls in the root project as the `spire`
# subdirectory, so one configure covers spire_e2e and every root target.
cmake -S "$ROOT/e2ebench" -B "$BUILD" -G Ninja \
  -DCMAKE_BUILD_TYPE=DeadCodeAudit \
  -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake --build "$BUILD" -j "$JOBS" --target all spire/all

LIB="$BUILD/spire/libspire.a"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Global functions the library defines (mangled names).
nm --defined-only "$LIB" | awk '$2 == "T" { print $3 }' | sort -u \
  >"$TMP/library"

# Symbols any linked program defines.
BINARIES=0
: >"$TMP/linked"
while IFS= read -r -d '' Bin; do
  if head -c 4 "$Bin" | grep -q "ELF"; then
    nm --defined-only "$Bin" | awk '{ print $NF }' >>"$TMP/linked"
    BINARIES=$((BINARIES + 1))
  fi
done < <(find "$BUILD" -path '*/CMakeFiles' -prune -o -type f -perm -u+x \
  -print0)
sort -u -o "$TMP/linked" "$TMP/linked"

comm -23 "$TMP/library" "$TMP/linked" | grep -Ev 'D[012]Ev$' \
  >"$TMP/unreferenced" || true

COUNT=$(wc -l <"$TMP/unreferenced")
echo "dead-code: $(wc -l <"$TMP/library") library functions," \
  "$BINARIES binaries, $COUNT unreferenced"
if [ "$COUNT" -ne 0 ]; then
  c++filt <"$TMP/unreferenced" | sed 's/^/  /'
  exit 1
fi
