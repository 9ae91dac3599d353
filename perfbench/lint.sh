#!/bin/sh
# Run pdb_lint (docs/STATIC_ANALYSIS.md, rules R1-R10) over the
# benchmark's sources. pdb_lint scans a fixed set of roots, so the
# sources are staged under bench/perfbench/ of a copy of the tree (the
# R6 catalogue check needs every other producer too) and the copy is
# linted whole. Run from the repository root; exits non-zero on any
# finding.
set -eu
root=_perfbench/lint-root
rm -rf "$root"
mkdir -p "$root"
for d in lib bin bench test tools docs; do cp -R "$d" "$root/"; done
mkdir -p "$root/bench/perfbench"
cp perfbench/*.ml "$root/bench/perfbench/"
dune build --root . --cache=disabled ./tools/lint/pdb_lint.exe
status=0
./_build/default/tools/lint/pdb_lint.exe --root "$root" || status=$?
rm -rf "$root"
exit "$status"
