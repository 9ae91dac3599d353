#!/bin/sh
# Build the standing-query benchmark from source, then run it with the
# given arguments. Run from the repository root:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh --make-reference
# Exits non-zero without a result when the library sources are absent
# or the build fails.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi
# The shared dune cache is off so the build writes only under _build/.
dune build --root . --cache=disabled ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
