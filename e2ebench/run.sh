#!/usr/bin/env bash
# Builds the end-to-end reduction benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build needs the whole repository; from a directory that holds only
# the benchmark it fails and the script exits non-zero without a result.
set -u
root=$(cd "$(dirname "$0")/.." && pwd) || exit 2
cd "$root" || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "e2ebench: $root is not a full checkout of the repository" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout; keep every write inside it
DUNE_CACHE=disabled dune build --root . ./e2ebench/main.exe 1>&2 || {
  echo "e2ebench: build failed" >&2
  exit 2
}
exec ./_build/default/e2ebench/main.exe "$@"
