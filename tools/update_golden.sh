#!/usr/bin/env sh
# Regenerates the golden files pinned by the `ctest -L golden` suite
# (quickstart, fig07, fig08, table3, perf_sweep, datacenter_day,
# ablation_policy, heterogeneous_fleet, ablation_planning_interval, fig05,
# fig06, ablation_upload_opts) from the binaries in a build tree:
#
#   tools/update_golden.sh [build_dir]     # default build dir: ./build
#
# The refreshed files land in tests/golden/; review the diff before
# committing — the whole point of the suite is that behavioral drift is a
# reviewed change, never an accident.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}

if [ ! -d "$build" ]; then
  echo "update_golden: build dir $build not found (run cmake -B build -S . first)" >&2
  exit 1
fi
# RunGolden.cmake runs the binary from a scratch working directory, so the
# build dir must be absolute.
build=$(CDPATH= cd -- "$build" && pwd)

update() {
  name=$1
  binary=$2
  extra_env=${3:-}
  cmake -DBINARY="$build/$binary" \
        -DGOLDEN="$repo/tests/golden/$name.txt" \
        -DWORK="$build/golden_work" \
        -DUPDATE=1 \
        -DEXTRA_ENV="$extra_env" \
        -P "$repo/cmake/RunGolden.cmake"
}

update quickstart examples/quickstart
update fig07 bench/fig07_day_timeline
update fig08 bench/fig08_energy_savings
update table3 bench/table3_memory_server
update perf_sweep bench/perf_sweep
update datacenter_day bench/datacenter_day OASIS_DC_RACKS=8
update ablation_policy bench/ablation_policy
update heterogeneous_fleet bench/heterogeneous_fleet
update ablation_planning_interval bench/ablation_planning_interval
update fig05 bench/fig05_consolidation_latency
update fig06 bench/fig06_app_startup
update ablation_upload_opts bench/ablation_upload_opts

echo "update_golden: done - review 'git diff tests/golden/' before committing"
