#!/usr/bin/env bash
# Fail unless every benchmark workload's rows match perfbench/expected.json.
#
#     bash tools/bench_rows.sh [setting]
#
# --seconds 0 runs each workload's fixed passes at the recorded seed, so
# every row is compared with perfbench/expected.json. Each workload's
# summary line is printed; the first one that is not correct, or that
# failed any operation, ends the script with status 1, naming the optional
# setting (for example "under Haswell") in its message.
set -eo pipefail
cd "$(dirname "$0")/.."
for workload in gate-16qam corr-64qam long-code-2x2; do
  last=$(python3 perfbench/run.py --workload "$workload" --seconds 0 | tail -n 1)
  echo "$workload: $last"
  if ! python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(r["correct"] is not True or r["failed"] != 0)' "$last"; then
    echo "$workload: benchmark rows differ from expected.json${1:+ $1}" >&2
    exit 1
  fi
done
