#!/bin/sh
# The benchmark's correctness gates: every workload for 3 s untraced, then
# every workload for 3 s traced.  bench/run.py exits 0 even when a request
# fails its gate, so each run's verdict is read from its last line, the
# run's JSON result.  mc_narrow and mc_wide gate the simulator at
# |z| <= 4.  The traced run wraps every public relaytree function and
# counts some from their arguments, so a call that does not fit its
# counter fails the request: trace calls log_sum_exp with its far-term
# count as a keyword, mc_narrow runs the simulator's trial shards on
# threads and mc_wide its serial path.  bench/run.py imports relaytree
# from src/, so no install is needed.
#
#   sh tests/bench_gates.sh                        # with the python on PATH
#   PYTHON=python3.10 sh tests/bench_gates.sh
set -eu
python=${PYTHON:-python}
cd "$(dirname "$0")/.."

gate() {
  $python bench/run.py --workload "$1" --seed 1 --seconds 3 --trace "$2" \
    | tail -n 1 \
    | $python -c 'import json, sys; sys.exit(json.loads(sys.stdin.read())["correct"] is not True)'
  echo "$1, trace $2: correct"
}

for workload in trace crosscheck mc_narrow mc_wide; do gate "$workload" 0; done
for workload in crosscheck trace mc_narrow mc_wide; do gate "$workload" 1; done
echo "bench gates: ok"
