#!/usr/bin/env bash
# Byte-identity harness: prove that a change moves no simulated output.
#
#   bench/same_outputs.sh PARENT CHANGE
#
# PARENT and CHANGE are two checkout roots, each already built with
# `dune build` (the CLI, the quick bench, the examples and the
# host-time benchmark).  Every command below runs once per side, each
# time in a fresh directory.  For each command the script records what
# it printed on stdout, its exit status and every file it left in its
# directory, with the manifests' "git" stamp masked; it then compares
# the two records, prints one line per command ("same" or "DIFFERS")
# and exits 1 if any command differs.  The host-time benchmark's smoke
# prints host timings, so only its sim_digest lines are kept.
#
# The records are kept under a temporary directory (in $TMPDIR, /tmp by
# default) when something differs, and removed otherwise.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT CHANGE" >&2
  exit 2
fi

examples="quickstart bank_transfer kvstore_nonblocking wsp_demo memcache_like"
variants="no-log log-only log-flush log-flush-async btree-no-log btree \
btree-flush btree-flush-async non-blocking nvtraverse delay-free"

roots=()
for side in "$1" "$2"; do
  root=$(cd "$side" 2> /dev/null && pwd) || {
    echo "$side: not a directory" >&2
    exit 2
  }
  for exe in bin/main.exe bench/main.exe benchmark/main.exe \
    $(for e in $examples; do echo "examples/$e.exe"; done); do
    if [ ! -x "$root/_build/default/$exe" ]; then
      echo "$root: _build/default/$exe is missing; run dune build there" >&2
      exit 2
    fi
  done
  roots+=("$root")
done

# One command per line; [tsp] is the side's CLI, [quick] its quick
# bench, [example] one of its examples and [digests] its benchmark
# smoke's sim_digest lines.  A line's steps run in one directory.
commands=()
for c in faults recovery check serve trace; do
  smoke="tsp $c --smoke --artifact-dir a"
  if [ $c = trace ]; then smoke="$smoke --out t.json"; fi
  commands+=("$smoke; tsp $c --replay a/$c-manifest.json --artifact-dir r")
done
for v in $variants; do
  commands+=("tsp serve --smoke --variant $v")
done
commands+=(
  "tsp trace --frontier"
  "tsp table1 --iterations 200 --breakdown"
  "tsp sweeps read-ratio --iterations 100"
  "tsp sweeps ledger --iterations 200"
  "tsp ycsb F --records 2000 --iterations 200"
  "tsp run --populate 2000 --crash-at 5000 --iterations 200"
  "tsp run --resume --crash-at 3000 --iterations 100 --variant btree"
  "tsp policy"
  "tsp wsp"
)
for e in $examples; do
  commands+=("example $e")
done
commands+=(
  "quick --jobs 1 --out quick.json"
  "digests"
)

work=$(mktemp -d "${TMPDIR:-/tmp}/same_outputs.XXXXXX")

# [step LABEL PROGRAM ARGS...] runs one step, appending its label and
# arguments (not the side's path), its stdout and its exit status to
# the record.
step() {
  local label=$1
  shift
  echo "\$ $label ${*:2}" >> "$record"
  "$@" >> "$record" 2> /dev/null
  echo "exit $?" >> "$record"
}
tsp() { step tsp "$build/bin/main.exe" "$@"; }
quick() { step quick "$build/bench/main.exe" "$@"; }
example() { step "$1" "$build/examples/$1.exe"; }
sim_digests() {
  mkdir -p .benchmark
  "$build/benchmark/main.exe" --smoke > smoke.out 2>&1
  local status=$?
  grep sim_digest smoke.out
  rm -rf smoke.out .benchmark
  return $status
}
digests() { step "benchmark --smoke" sim_digests; }

# Run command [n] on side [s] in a fresh directory; leave its record,
# files included and the "git" stamp masked, in $work/s.n.
run_command() {
  local s=$1 n=$2
  local dir=$work/run.$s.$n
  build=${roots[$s]}/_build/default
  record=$work/raw.$s.$n
  mkdir "$dir"
  : > "$record"
  (cd "$dir" && eval "${commands[$n]}")
  (
    cd "$dir"
    find . -type f | LC_ALL=C sort | while read -r f; do
      echo "== $f"
      cat "$f"
    done
  ) >> "$record"
  sed 's/"git":"[^"]*"/"git":"-"/g' "$record" > "$work/$s.$n"
  rm -rf "$dir" "$record"
}

differ=0
for n in "${!commands[@]}"; do
  run_command 0 "$n"
  run_command 1 "$n"
  if cmp -s "$work/0.$n" "$work/1.$n"; then
    verdict=same
  else
    verdict=DIFFERS
    differ=1
  fi
  printf '%-8s %s\n' "$verdict" "${commands[$n]}"
done

if [ $differ -eq 0 ]; then
  rm -rf "$work"
  echo "every command identical"
else
  echo "records kept in $work (0.N: $1, 1.N: $2)"
fi
exit $differ
