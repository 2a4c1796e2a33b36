#!/usr/bin/env bash
# Build the benchmark and the compiler from source, then run one workload.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload cold-pom --seed 1 --seconds 30 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench/run.sh: run it from the root of a checkout of the repository" >&2
  exit 2
fi
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . perfbench/main.exe perfbench/kernel/kernel.exe bin/pom_compile.exe 1>&2
exec ./_build/default/perfbench/main.exe run "$@"
