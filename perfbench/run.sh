#!/bin/sh
# Build the checker binaries and the benchmark from source, then run the
# benchmark.  Run from the repository root:
#
#   sh perfbench/run.sh --workload cli_corpus --seed 1 --seconds 40 --trace 0
#   sh perfbench/run.sh suite --runs 10 --out perfbench/_work/old.jsonl
#   sh perfbench/run.sh compare perfbench/_work/old.jsonl perfbench/_work/new.jsonl
#
# Build output goes to _build/ and run files to perfbench/_work/.
set -eu
if [ ! -f dune-project ] || [ ! -f bin/mcheck.ml ] || [ ! -f perfbench/perfbench.ml ]; then
  echo "perfbench: run from the root of a source tree (dune-project, bin/ and perfbench/)" >&2
  exit 2
fi
dune build --root . ./bin/mcheck.exe ./bin/mcheckd.exe ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
