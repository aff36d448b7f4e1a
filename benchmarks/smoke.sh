#!/usr/bin/env bash
# Smoke run of the socket-to-socket benchmark: unit tests, then every
# workload end to end and traced at --quick length (1 s warm-up + 5 s
# measured; for smoke only, never for claims). About two minutes on two
# cores (eight child runs, each re-extracting the 32 queries in 3 s), 15 s
# more when the reference corpus is not cached yet.
# Exits non-zero when a workload answers wrongly, fails a request, or
# breaks a soundness gate (ledger coverage, open-loop backlog).
set -euo pipefail
cd "$(dirname "$0")"
out="${1:-.cache/smoke.json}"
mkdir -p "$(dirname "$out")"
cargo test --offline --quiet
cargo run --release --offline --quiet -- run --seed 1 --quick 1 --out "$out"
