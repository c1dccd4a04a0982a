#!/bin/sh
# The costliest runs that the CLI's work limit accepts, and the first runs
# past it.  Each accepted run must finish well inside 120 s (the README
# states their times) and print the CSV recorded earlier: the two recurse
# traces while recurse still wrote its rows through csv.writer, the
# simulate row at m = 149,999 before simulate had a work limit, the fill
# limit's costliest accepted run, 262,144 leaf fills in one chunk of 16
# trials, before leaves and tie coins were thresholded a block of rows at
# a time, and two more fill corners, 299,209 leaves of fan-in 547 with 16
# trials and 100,000 leaves of fan-in 10 with 120, before draws were
# compared as raw words.  Every simulate pin above but the 262,144-leaf
# one holds a zero error count, so a moved draw would not change its CSV;
# one more 262,144-leaf run at (0.45, 0.45) holds a nonzero count, 5 of
# 16 trials in error, recorded before the kernel's level step shared one
# tail walk across a table's windows.  One level more and one fan-in more for
# recurse, and for simulate one fan-in more, a 2^30-leaf tree and a
# 262,144-leaf tree with 38,146 trials in 2,385 chunks, must each be
# refused with exit 2 before any per-level work.
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
timeout 120 $relaytree simulate --m 2 --height 18 --trials 16 --seed 1 \
  --alpha0 0.1 --beta0 0.2 > sim262144.csv
timeout 120 $relaytree simulate --m 547 --height 2 --trials 16 --seed 1 \
  --alpha0 0.1 --beta0 0.2 > sim547.csv
timeout 120 $relaytree simulate --m 10 --height 5 --trials 120 --seed 1 \
  --alpha0 0.1 --beta0 0.2 > sim100000.csv
timeout 120 $relaytree simulate --m 2 --height 18 --trials 16 --seed 1 \
  --alpha0 0.45 --beta0 0.45 > sim262144_errors.csv
sha256sum -c <<'EOF'
4095006552e77acab8b726350a1241e49a16abcc0eb1f44776cd0c879a55456f  m2.csv
0f1f25e0371cf54290d70963f01aca29dce006d7f1d26493a2622ef805769743  m149999.csv
a899974c095678dfb01bd6657d2368bb6ecf50bed3684f092df92187c60378ea  sim149999.csv
4f67423f923c241c645ca0fc00ca5ec638f7666b93b9b0fe9127545b336e663f  sim262144.csv
a899974c095678dfb01bd6657d2368bb6ecf50bed3684f092df92187c60378ea  sim547.csv
a899974c095678dfb01bd6657d2368bb6ecf50bed3684f092df92187c60378ea  sim100000.csv
82551b8cbbd76e6129a581206004a0ee5e1a3b25d930cce7ddf2826afd8affd6  sim262144_errors.csv
EOF

refused() {
  code=0
  timeout 5 $relaytree "$@" --alpha0 0.1 --beta0 0.2 || code=$?
  test "$code" -eq 2
}
refused recurse --m 2 --levels 100000
refused recurse --m 150000 --levels 1
refused simulate --m 150000 --height 1 --trials 1 --seed 1
refused simulate --m 2 --height 30 --trials 1 --seed 1
refused simulate --m 2 --height 18 --trials 38146 --seed 1
echo "work limits: ok"
