#!/usr/bin/env bash
# Builds the benchmark from source (release profile, with the repository's
# .cargo/config.toml flags when run from the repository root) and runs it
# with the given arguments. Build output goes to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/perfbench" "$@"
