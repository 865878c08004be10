#!/usr/bin/env bash
# Fails if the built library holds a fused multiply-add. The kernels'
# bitwise contract (src/linalg/kernels.h) needs each multiply and add to
# round on its own. AVX-512F includes FMA, so only -ffp-contract=off keeps
# gcc from fusing the AVX-512 tile's `b * x` and `acc + prod`; this check
# catches a build that lost the flag or a new FMA target attribute.
#
# On x86-64 it disassembles the archive and fails on any vfmadd*,
# vfnmadd*, vfmsub* or vfnmsub* mnemonic (vfmaddsub*/vfmsubadd* included).
# Other architectures are skipped: their FMA mnemonics differ.
#
# Usage: scripts/check_no_fma.sh [libs2c2.a]   (default: build/libs2c2.a)
set -euo pipefail

cd "$(dirname "$0")/.."
LIB="${1:-build/libs2c2.a}"

if [ "$(uname -m)" != "x86_64" ]; then
  echo "check_no_fma: skipped on $(uname -m) (x86-64 mnemonics only)"
  exit 0
fi
if [ ! -f "$LIB" ]; then
  echo "check_no_fma: $LIB not found; build the library first" >&2
  exit 1
fi

listing=$(objdump -d --no-show-raw-insn -C "$LIB")
hits=$(printf '%s\n' "$listing" \
  | grep -E '^[[:space:]]*[0-9a-f]+:[[:space:]]+vfn?m(add|sub)' || true)
if [ -n "$hits" ]; then
  echo "check_no_fma: fused multiply-adds in $LIB:" >&2
  printf '%s\n' "$hits" | head -20 >&2
  exit 1
fi
count=$(printf '%s\n' "$listing" | grep -cE '^[[:space:]]*[0-9a-f]+:' || true)
echo "check_no_fma: no fused multiply-add in $LIB ($count instructions)"
