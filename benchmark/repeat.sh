#!/bin/sh
# Runs the whole benchmark N times (seeds SEED, SEED+1, ...) and prints, per
# end-to-end metric x workload, the quartiles, the median and the run-to-run
# spread; exits non-zero if a spread is wider than the metric's bound.
#
#   benchmark/repeat.sh 5                 # every pass, five times
#   benchmark/repeat.sh 10 --only e2e     # what the driver's check repeats
set -eu
n="${1:?usage: repeat.sh N [--only e2e] [--seed S] [--seconds S]}"
shift
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat "$n" "$@"
