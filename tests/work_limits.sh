#!/bin/sh
# The costliest runs that the CLI's work limit accepts, and the first runs
# past it.  Each accepted run must finish well inside 120 s (the README
# states their times) and print the CSV recorded earlier: the two recurse
# traces while recurse still wrote its rows through csv.writer, the
# simulate row before simulate had a work limit.  One fan-in more, a
# 2^30-leaf tree and a 262,144-leaf tree with 38,146 trials in 2,385
# chunks must each be refused with exit 2 before any per-level work.
#
#   sh tests/work_limits.sh                                   # the relaytree on PATH
#   PYTHONPATH="$PWD/src" RELAYTREE="python -m relaytree.cli" sh tests/work_limits.sh
set -eu
relaytree=${RELAYTREE:-relaytree}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

timeout 120 $relaytree recurse --m 2 --alpha0 0.1 --beta0 0.2 --levels 99999 > m2.csv
timeout 120 $relaytree recurse --m 149999 --alpha0 0.1 --beta0 0.2 --levels 1 > m149999.csv
timeout 120 $relaytree simulate --m 149999 --height 1 --trials 1 --seed 1 \
  --alpha0 0.1 --beta0 0.2 > sim149999.csv
sha256sum -c <<'EOF'
4095006552e77acab8b726350a1241e49a16abcc0eb1f44776cd0c879a55456f  m2.csv
0f1f25e0371cf54290d70963f01aca29dce006d7f1d26493a2622ef805769743  m149999.csv
a899974c095678dfb01bd6657d2368bb6ecf50bed3684f092df92187c60378ea  sim149999.csv
EOF

refused() {
  code=0
  timeout 5 $relaytree simulate "$@" --seed 1 --alpha0 0.1 --beta0 0.2 || code=$?
  test "$code" -eq 2
}
refused --m 150000 --height 1 --trials 1
refused --m 2 --height 30 --trials 1
refused --m 2 --height 18 --trials 38146
echo "work limits: ok"
