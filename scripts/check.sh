#!/usr/bin/env bash
# Repository check gate: invariants + lint + tier-1 tests.
#
# Gate order (cheapest first, so failures surface fast):
#   1. invariant greps   — clock reads, struct framing, stray print(),
#                          metric names outside the catalogue, retry
#                          loops outside RetryPolicy.attempts(), worker
#                          pools outside compression/parallel.py
#   2. ruff lint         — style/import hygiene (skipped if not installed)
#   3. tier-1 tests      — the full pytest suite under the default
#                          (`tier1`) hypothesis profile, with its 15
#                          slowest tests and its wall time; fails when any
#                          single test takes over 60 s (skipped by --fast)
#   4. named gates       — each `--gate NAME` forwards to the one runner,
#                          `python -m repro gate NAME` (bench-smoke, chaos,
#                          placement, fuzz) — the same commands the CI
#                          jobs run
#
# Usage: scripts/check.sh [--fast] [--gate NAME]...
#   --fast       skip the test suite (invariant grep + lint only)
#   --gate NAME  also run that gate (repeatable)
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
gates=()
while [ "$#" -gt 0 ]; do
    case "$1" in
        --fast) fast=1 ;;
        --gate)
            [ "$#" -ge 2 ] || { echo "--gate needs a NAME" >&2; exit 2; }
            gates+=("$2"); shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

# --- Invariant: one timing site -------------------------------------------------
# Codec-cost timing is engine.timed in core/engine.py — its start and stop
# are the file's only two clock reads — and every codec run that accounts
# for time (the CodecExecutor, pool workers, host calibration, the
# differential harness) calls it, or the measured/modeled mode switch
# silently stops covering it.  netsim/clock.py keeps exactly one read
# (WallClock.now, the fuzz budget clock).  The real TCP transport may read
# time.monotonic: actual network transfers are outside the modeled-cost
# domain.  The event fabric gets exactly ONE sanctioned loop-time site
# (_loop_now in fabric/broker.py, threads-mode flush/close deadlines), and
# the placement relay likewise exactly ONE liveness stamp (_relay_now in
# middleware/relay.py).  Every sanctioned file but tcp.py is held to an
# exact count below so a second read cannot sneak in behind the exclusions.
echo "== invariant: clock reads only in core/engine.py, netsim/clock.py, middleware/tcp.py, middleware/relay.py, fabric/broker.py"
stray=$(grep -rnE "time\.(perf_counter|monotonic|time)\(" src/repro --include="*.py" \
    | grep -v "src/repro/core/engine.py" \
    | grep -v "src/repro/netsim/clock.py" \
    | grep -v "src/repro/middleware/tcp.py" \
    | grep -v "src/repro/middleware/relay.py" \
    | grep -v "src/repro/fabric/broker.py" || true)
if [ -n "$stray" ]; then
    echo "FAIL: clock read outside the sanctioned timing sites:" >&2
    echo "$stray" >&2
    exit 1
fi
# file, exact clock-read count, what they are
while read -r file want what; do
    got=$(grep -cE "time\.(perf_counter|monotonic|time)\(" "$file" || true)
    if [ "$got" != "$want" ]; then
        echo "FAIL: $file must contain exactly $want clock read(s) ($what); found $got" >&2
        grep -nE "time\.(perf_counter|monotonic|time)\(" "$file" >&2 || true
        exit 1
    fi
done <<'SITES'
src/repro/core/engine.py 2 engine.timed
src/repro/netsim/clock.py 1 WallClock.now
src/repro/fabric/broker.py 1 _loop_now
src/repro/middleware/relay.py 1 _relay_now
SITES
echo "ok"

# --- Invariant: one frame parser ------------------------------------------------
# All wire parsing goes through repro.compression.framing.parse_frame;
# struct-based length prefixes must not reappear in the transports.
echo "== invariant: no struct-based framing in middleware"
stray=$(grep -rn "struct.unpack\|struct.pack" src/repro/middleware --include="*.py" || true)
if [ -n "$stray" ]; then
    echo "FAIL: raw struct framing in middleware (use repro.compression.framing):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Invariant: zero-copy hot paths -------------------------------------------
# The framing codec, the block cache, the frame batcher, the fabric's
# delivery loop and the event wire format are the wire hot paths: a
# bytes() materialization there silently reintroduces the per-frame (or
# per-delivery) copies the zero-copy work removed.  Every deliberate copy
# must carry a "copy-ok" annotation (same line or the comment block
# directly above, within 3 lines) explaining why the copy is owed.
# to_bytes()/from_bytes()/*_bytes() int-conversion calls are not copies
# and are excluded by the leading-character class.
echo "== invariant: no unannotated bytes() copies in zero-copy hot paths"
stray=$(awk '
    {
        if ($0 ~ /(^|[^_A-Za-z.])bytes\(/ && $0 !~ /copy-ok/) {
            if (license > 0) license = 0  # one annotation covers one copy
            else print FILENAME ":" FNR ": " $0
        }
        if ($0 ~ /copy-ok/) license = 3
        else if (license > 0) license--
    }
' src/repro/compression/framing.py src/repro/fabric/cache.py src/repro/fabric/batching.py \
    src/repro/fabric/broker.py src/repro/middleware/transport.py)
if [ -n "$stray" ]; then
    echo "FAIL: unannotated bytes() copy on a zero-copy hot path (annotate with # copy-ok: <reason> if the copy is owed):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Invariant: no print() in the library -------------------------------------
# Diagnostics go through repro.obs (metrics/traces) or logging; stdout
# belongs to the CLI alone.  Only cli.py and __main__.py may print.
echo "== invariant: no print( in src/repro outside cli.py/__main__.py"
stray=$(grep -rn "print(" src/repro --include="*.py" \
    | grep -v "src/repro/cli.py" \
    | grep -v "src/repro/__main__.py" || true)
if [ -n "$stray" ]; then
    echo "FAIL: print() in library code (route through repro.obs or logging):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Invariant: one metric catalogue ------------------------------------------
# Every repro_* series is declared once, in obs/catalogue.py (name, kind,
# help, label keys); emitters import the row.  A name spelled anywhere
# else is a series the catalogue test and the docs check cannot see.
echo "== invariant: no \"repro_ metric-name literal in src/repro outside obs/catalogue.py"
stray=$(grep -rn '"repro_' src/repro --include="*.py" \
    | grep -v "src/repro/obs/catalogue.py" || true)
if [ -n "$stray" ]; then
    echo "FAIL: metric name spelled outside the catalogue (declare a row in repro.obs.catalogue and import it):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Invariant: one retry schedule ------------------------------------------
# "Attempt 1 at once, backoff(n) before attempt n+1, at most max_attempts,
# nothing after the last" is RetryPolicy.attempts() in netsim/faults.py;
# every retry loop iterates it.  A .backoff( call anywhere else is a
# hand-rolled copy of that rule.
echo "== invariant: no .backoff( call in src/repro outside netsim/faults.py"
stray=$(grep -rn "\\.backoff(" src/repro --include="*.py" \
    | grep -v "src/repro/netsim/faults.py" || true)
if [ -n "$stray" ]; then
    echo "FAIL: hand-rolled retry loop (iterate RetryPolicy.attempts() instead):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Invariant: one pool seam -------------------------------------------------
# Worker pools are built by compression/parallel.py alone and plug into block
# execution through PipelinedBlockEngine's window.  A pool private to a codec
# or a layer would also hide its CPU and RSS from bench/, whose process_time
# and ru_maxrss count the parent process only.
echo "== invariant: executors and multiprocessing only in compression/parallel.py"
stray=$(grep -rnE "ProcessPoolExecutor\(|ThreadPoolExecutor\(|multiprocessing" src/repro --include="*.py" \
    | grep -v "src/repro/compression/parallel.py" || true)
if [ -n "$stray" ]; then
    echo "FAIL: worker pool outside compression/parallel.py (build it there and plug it into PipelinedBlockEngine):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Lint -----------------------------------------------------------------------
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check"
    ruff check src tests
else
    echo "== ruff not installed; skipping lint"
fi

# --- Tier-1 tests ---------------------------------------------------------------
tier1_summary="tier-1 skipped (--fast)"
if [ "$fast" -eq 1 ]; then
    echo "== --fast: skipping test suite"
else
    # The pure-Python codecs are most of the suite's time, so the slowest
    # tests and the wall time in every CI log are the cheapest codec
    # slowdown alarm there is.
    echo "== tier-1 test suite"
    tier1_start=$SECONDS
    tier1_log=$(mktemp)
    trap 'rm -f "$tier1_log"' EXIT
    PYTHONPATH=src python -m pytest -x -q --durations=15 | tee "$tier1_log"
    tier1_wall=$((SECONDS - tier1_start))
    # tests/conftest.py reports the profile that ran in pytest's summary.
    profile=$(grep -m1 "^hypothesis profile: " "$tier1_log" || echo "hypothesis profile: not reported")
    tier1_summary="tier-1 passed in $((tier1_wall / 60)) m $((tier1_wall % 60)) s ($profile)"
    # One test was once a third of the suite (an unbounded decode, found
    # only by profiling): no single test may take over a minute.  The
    # --durations rows read "12.34s call     tests/...::test_name".
    over_budget=$(awk '$1 ~ /^[0-9.]+s$/ && $2 ~ /^(call|setup|teardown)$/ && $1 + 0 > 60' "$tier1_log")
    if [ -n "$over_budget" ]; then
        echo "FAIL: single test over the 60 s budget:" >&2
        echo "$over_budget" >&2
        exit 1
    fi
fi

# --- Named gates ----------------------------------------------------------------
if [ "${#gates[@]}" -gt 0 ]; then
    echo "== gates: ${gates[*]}"
    PYTHONPATH=src python -m repro gate "${gates[@]}"
fi

# The sizes ROADMAP item 5 is judged on, in every log (print only).
lines_of() { git ls-files -z -- "$@" | xargs -0 cat | wc -l; }
sizes="src/repro $(lines_of src/repro), scripts+benchmarks $(lines_of scripts benchmarks), tests $(lines_of tests) lines, cli options $(grep -c add_argument src/repro/cli.py)"
echo "== check.sh: invariants ok, $tier1_summary; $sizes"
