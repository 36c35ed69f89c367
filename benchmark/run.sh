#!/usr/bin/env bash
# The benchmark's one command, as BENCHMARK.json names it:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# builds (first call only) and runs `bench` for --trace 0, the end-to-end
# metrics, or `trace` for --trace 1, the per-layer walk. The two are
# separate binaries so that a change which breaks the tracer's build
# leaves the end-to-end run working. Any other arguments (`run`,
# `compare`, ...) go to `bench` unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin=bench
previous=
for argument in "$@"; do
    if [[ "$previous" == "--trace" && "$argument" != "0" ]]; then
        bin=trace
    fi
    previous="$argument"
done
exec cargo run --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --bin "$bin" -- "$@"
