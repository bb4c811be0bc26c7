#!/usr/bin/env bash
# Builds the benchmark in release mode and runs its driver, e.g. from
# the repository root:
#
#   bash studybench/run.sh --workload paper --seed 42 --seconds 20 --trace 0
#
# Cargo's build output goes to $CARGO_TARGET_DIR when it is set, else to
# studybench/target. Everything else the driver does is described in
# studybench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/studybench" "$@"
