#!/usr/bin/env bash
# Unit tests of the benchmark's own code, then every workload at smoke scale
# with the same answer checks as a full run. Not wired into
# .github/workflows/ci.yml yet; run from the repository root or anywhere.
set -euo pipefail
manifest="$(cd "$(dirname "$0")" && pwd)/Cargo.toml"
cargo test --offline --manifest-path "$manifest"
cargo run --release --offline --manifest-path "$manifest" -- --smoke
