#!/usr/bin/env sh
# Refreshes the repo-root BENCH_sweep.json — the committed perf snapshot that
# tracks the parallel runner's throughput and scaling diagnosis across PRs:
#
#   tools/update_bench.sh [build_dir]      # default build dir: ./build
#
# Runs bench/perf_sweep with OASIS_PROF=summary so every sweep point carries
# its wall-clock profile (parallel efficiency, merge-serial fraction, named
# bottleneck). The snapshot also records, per sweep point, the effective
# worker count after the runner's clamp (plus any requested job counts that
# collapsed to an already-measured count on this host). Absolute numbers are
# machine-dependent — review the diff for the *shape* (efficiency,
# fractions, bottleneck), not the raw seconds.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}

if [ ! -x "$build/bench/perf_sweep" ]; then
  echo "update_bench: $build/bench/perf_sweep not found (build the repo first)" >&2
  exit 1
fi

# Stamp the snapshot with the revision it measured ("-dirty" when the tree
# had uncommitted changes); hardware_cores is stamped by the binary itself.
# Outside a git checkout the stamp degrades to "unknown" rather than failing
# the refresh.
git_sha=$(git -C "$repo" describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)

# Sweep to jobs=4 by default (export OASIS_JOBS to override) so the
# committed snapshot always carries the scaling story, even on small boxes
# where hardware_concurrency would stop the sweep at jobs=1.
OASIS_JOBS="${OASIS_JOBS:-4}" \
OASIS_PROF=summary \
OASIS_BENCH_JSON="$repo/BENCH_sweep.json" \
OASIS_BENCH_GIT_SHA="$git_sha" \
  "$build/bench/perf_sweep"

# The strategy ablation splices its per-strategy optimality gaps into the
# same snapshot as a "policy_gaps" member (CI's oracle-gap smoke gate reads
# it), so it must run after perf_sweep rewrites the file whole.
OASIS_BENCH_JSON="$repo/BENCH_sweep.json" \
  "$build/bench/ablation_policy"

echo "update_bench: wrote $repo/BENCH_sweep.json - review 'git diff BENCH_sweep.json'"
