#!/usr/bin/env bash
# The repo benchmark: builds the release `odrc` binary and the harness,
# then hands every argument to the harness.
#
#   benchmark/run.sh [--seed N] [--seconds S]   whole suite, every metric by name
#   benchmark/run.sh --aa                       the suite twice on one build, compared
#   benchmark/run.sh --quick                    smoke run: tiny inputs, one repetition
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one pass, JSON result line last
#                                               (the form BENCHMARK.json's command takes)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The driver points CARGO_TARGET_DIR at one directory for both builds;
# without it each workspace keeps its own.
root_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"

# Build chatter goes to stderr: stdout's last line is the result.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p odrc-serve --bin odrc >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$bench_target/release/odrc-benchmark" --odrc "$root_target/release/odrc" "$@"
