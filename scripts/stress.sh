#!/bin/sh
# Multi-core stress: loop the differential batteries in release builds so
# rare cross-core ordering or publication bugs get many chances to show.
# Each battery compares the parallel executors (2 and more lanes) with a
# sequential reference, bit for bit.
#
# Usage: sh scripts/stress.sh [rounds]   (default 10)
set -e
ROUNDS=${1:-10}
CORE="--test fault_differential"
ENGINE="--test net_differential --test modes_differential --test venue_isolation --test frontend_differential --test venue_placement"
echo "== building the batteries (release) =="
cargo test --release -q -p djstar-core $CORE --no-run
cargo test --release -q -p djstar-engine $ENGINE --no-run
i=1
while [ "$i" -le "$ROUNDS" ]; do
    echo "== stress round $i/$ROUNDS =="
    cargo test --release -q -p djstar-core $CORE
    cargo test --release -q -p djstar-engine $ENGINE
    i=$((i + 1))
done
echo "stress.sh: $ROUNDS rounds passed"
