#!/usr/bin/env bash
# Builds the `coalloc-exp` daemon and the benchmark program from the
# checkout this is run from, then runs the benchmark:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --selftest
#
# Run it from the root of the checkout. Build output goes to stderr so
# that the benchmark's result object stays the last line of stdout.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f src/bin/coalloc_exp.rs || ! -f perfbench/Cargo.toml ]]; then
  echo "perfbench: run from the root of a coalloc checkout" >&2
  exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin coalloc-exp >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/coalloc-exp" "$@"
