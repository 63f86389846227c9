#!/usr/bin/env bash
# Repository check gate: invariants + lint + tier-1 tests.
#
# Gate order (cheapest first, so failures surface fast):
#   1. invariant greps   — clock reads, struct framing, stray print(),
#                          metric names outside the catalogue, retry
#                          loops outside RetryPolicy.attempts(), worker
#                          pools outside compression/parallel.py, a second
#                          scenario runner in experiments/, size-only
#                          codec runs outside the modeled probe, metric
#                          internals outside obs/metrics.py, mallopt
#                          outside compression/heap.py, DESIGN.md
#                          inventory rows naming modules that do not exist,
#                          settable values or front-door keywords over
#                          their ceilings
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

# --- Invariant: the pricing and table layers are pure -------------------------
# The §2.5 table, the bicriteria pricer and the placement model are
# functions of what they are handed (a DecisionInputs, a speeds mapping, a
# frontier point).  AdaptivePolicy.choose alone reads the live monitor and
# writes the registry, around a decide() that stays replayable only while
# these three modules can reach neither.
echo "== invariant: core/decision.py, core/bicriteria.py, core/placement.py import neither .monitor nor repro.obs"
stray=$(grep -nE "^[[:space:]]*(from|import)[[:space:]]+(\.+|repro\.)(core\.)?(monitor|obs)\b|^[[:space:]]*from[[:space:]]+\.+[[:space:]]+import[[:space:]].*\b(monitor|obs)\b" \
    src/repro/core/decision.py src/repro/core/bicriteria.py src/repro/core/placement.py || true)
if [ -n "$stray" ]; then
    echo "FAIL: a pricing or table layer imports the live monitor or repro.obs (snapshot it into DecisionInputs in AdaptivePolicy.choose instead):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Invariant: one pool seam -------------------------------------------------
# There is one worker pool, the process-wide codec pool that
# compression/parallel.py builds, and one call reaches it: chunk_map (a codec's
# chunk stages, a run's sampling probes, PipelinedBlockEngine's blocks).  A pool
# private to a codec or a layer would also hide its CPU and RSS from bench/,
# whose process_time and ru_maxrss count the parent process only.  The codec
# kernels hold the GIL, so a thread pool cannot pay: ThreadPoolExecutor and
# concurrent.futures are refused everywhere, parallel.py included, until a
# measured workload says otherwise.  The pool runs no thread in the parent
# (the caller writes each task to the workers' pipes itself), so parallel.py
# starts no Thread.  The call sites are listed so that a new caller shows up
# in review.
echo "== invariant: one codec pool, built in compression/parallel.py, no thread pool"
stray=$({ grep -rnE "ProcessPoolExecutor\(|multiprocessing" src/repro --include="*.py" \
    | grep -v "src/repro/compression/parallel.py"
    grep -rnE "ThreadPoolExecutor|concurrent\.futures" src/repro --include="*.py"
    grep -nE "Thread\(" src/repro/compression/parallel.py; } || true)
if [ -n "$stray" ]; then
    echo "FAIL: worker pool outside the one codec pool, or a thread in it (reach it through chunk_map in compression/parallel.py; no thread pool, no helper thread):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok; chunk_map call sites:"
grep -rnE "chunk_map\(" src/repro --include="*.py" \
    | grep -vE "def chunk_map\(" | sed 's/^/    /' || true

# --- Invariant: one scenario runner --------------------------------------------
# Every experiment is a list of ReplayConfig cells run by
# experiments/replay.py's run_replay, which builds the link, the load, the
# §2.5 sampler and the AdaptivePipeline a config names.  A second place
# that built one would be a second runner whose scenario could drift from
# the figures'.  links.py's Figure 5 measurement times the links
# themselves, so it alone builds a SimulatedLink of its own.
echo "== invariant: under src/repro/experiments only replay.py builds a pipeline, sampler or link"
stray=$(grep -rnE "AdaptivePipeline\(|LzSampler\(|make_link\(|SimulatedLink\(" \
    src/repro/experiments --include="*.py" \
    | grep -v "^src/repro/experiments/replay.py:" \
    | grep -vE "^src/repro/experiments/links.py:[0-9]+:.*SimulatedLink\(" || true)
if [ -n "$stray" ]; then
    echo "FAIL: a second scenario runner (make the experiment ReplayConfig cells through experiments.replay.run_replay):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Invariant: a size-only run is never timed -------------------------------
# Codec.compressed_size counts what compress would write without writing
# it: the modeled §2.5 probe reads the size alone and the cost model
# prices it.  Timed, it would read as a codec speed no codec has, so the
# one caller is core/sampler.py's modeled probe, which never times it.
# The definitions in compression/ and the conformance kit and
# differential rows in verify/ (which hold the size equal to the
# written bytes) are exempt.
echo "== invariant: compressed_size( called in src/repro only from core/sampler.py, never timed"
stray=$({ grep -rnE "compressed_size\(|\btimed\b.*compressed_size" src/repro --include="*.py" \
    | grep -v "^src/repro/core/sampler.py:" \
    | grep -v "^src/repro/verify/" \
    | grep -vE "^src/repro/compression/[^:]+:[0-9]+:[[:space:]]*def compressed_size\("
    grep -HnE "\btimed\b.*compressed_size" src/repro/core/sampler.py; } || true)
if [ -n "$stray" ]; then
    echo "FAIL: compressed_size( called outside the modeled probe (a size-only run must never be timed or accounted as one):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Invariant: series are reached through the registry's public API --------
# A per-block emitter binds its label sets once (MetricsRegistry.series, a
# SeriesBook); the family's slot map, label resolution and canonical keys
# stay private to obs/metrics.py, where remove/clear keep every handle
# correct.  Code that reached into them elsewhere would write to slots no
# handle knows have been dropped.
echo "== invariant: no ._slot(, ._key( or ._series in src/repro outside obs/metrics.py"
stray=$(grep -rnE "\._(slot|key)\(|\._series\b" src/repro --include="*.py" \
    | grep -v "^src/repro/obs/metrics.py:" || true)
if [ -n "$stray" ]; then
    echo "FAIL: metric internals reached outside obs/metrics.py (bind a series with registry.series or a SeriesBook):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ok"

# --- Invariant: one door to the C allocator -------------------------------------
# The codec kernels' megabyte temporaries stay on a resident heap because
# compression/heap.py raises glibc's mmap and trim thresholds once, at
# package import.  A second mallopt site (or any other ctypes.CDLL handle
# on the C library) could undo or fight that setting where no test looks,
# so both words live in that one module; the thresholds in force are
# printed.
echo "== invariant: mallopt and ctypes.CDLL only in compression/heap.py"
stray=$(grep -rnE "mallopt|ctypes\.CDLL" src/repro --include="*.py" \
    | grep -v "src/repro/compression/heap.py" || true)
if [ -n "$stray" ]; then
    echo "FAIL: C allocator reached outside compression/heap.py (set heap behaviour in keep_heap_resident):" >&2
    echo "$stray" >&2
    exit 1
fi
PYTHONPATH=src python -c '
from repro.compression import heap
print(f"ok; heap thresholds: mmap {heap.MMAP_THRESHOLD >> 20} MB, trim {heap.TRIM_THRESHOLD >> 20} MB")'

# --- Invariant: DESIGN.md's inventory names the tree ----------------------------
# Every module path an S<n> row of DESIGN.md's inventory names in backticks
# must import as a module or package, or resolve as an attribute of one.  A
# bare `.name` cell is a module of the package holding the row's first
# `repro.` name, and `repro.pkg.*` names the package.  A deleted or renamed
# module fails here instead of leaving the inventory pointing at nothing.
echo "== invariant: every repro.* path in a DESIGN.md S<n> row exists"
PYTHONPATH=src python - <<'PY'
import importlib
import re
import sys


def home(dotted):
    """The package holding ``dotted``'s module, or None if it does not resolve."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        target = module
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return None
            target = getattr(target, attribute)
        return module.__package__
    return None


missing = []
for line in open("DESIGN.md", encoding="utf-8"):
    row = re.match(r"\| (S\d+) \|", line)
    if not row:
        continue
    package = None
    for cell in re.findall(r"`([^`]*)`", line):
        names = re.findall(r"(?<![\w.])repro(?:\.\w+)+", cell)
        if package and re.fullmatch(r"\.[a-z_]\w*", cell):
            names.append(package + cell)
        for name in names:
            found = home(name)
            if found is None:
                missing.append(f"{row.group(1)}: {name}")
            package = package or found
if missing:
    print("FAIL: DESIGN.md inventory names what the tree does not have:", file=sys.stderr)
    print("\n".join(missing), file=sys.stderr)
    sys.exit(1)
PY
echo "ok"

# --- Ratchet: the settable surface only shrinks -------------------------------
# The sizes ROADMAP item 8 is judged on: the settable values under
# src/repro (every parameter with a default of a public function, of a
# public class's __init__ or public method, and every defaulted field of a
# public dataclass or NamedTuple; modules named _*.py are private) and the
# keyword count of each block-path constructor.  The settable values may
# not exceed SETTABLE_CEILING, nor the keywords of the two front doors
# theirs: a change that removes some lowers the ceiling here with it.
SETTABLE_CEILING=417
POLICY_KEYWORD_CEILING=10
PIPELINE_KEYWORD_CEILING=7
lines_of() { git ls-files -z -- "$@" | xargs -0 cat | wc -l; }
settable=$(python - <<'PY'
import ast
import pathlib


def defaults(function):
    return len(function.args.defaults) + sum(d is not None for d in function.args.kw_defaults)


def is_record(cls):
    decorators = {ast.unparse(getattr(d, "func", d)) for d in cls.decorator_list}
    return "dataclass" in decorators or "NamedTuple" in map(ast.unparse, cls.bases)


count = 0
for path in pathlib.Path("src/repro").rglob("*.py"):
    if path.name.startswith("_") and path.name not in ("__init__.py", "__main__.py"):
        continue
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            count += defaults(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    if item.name == "__init__" or not item.name.startswith("_"):
                        count += defaults(item)
                elif is_record(node) and isinstance(item, ast.AnnAssign) and item.value:
                    count += "ClassVar" not in ast.unparse(item.annotation)
print(count)
PY
)
keywords=$(PYTHONPATH=src python -c '
import inspect
from repro.core.engine import BlockEngine, CodecExecutor
from repro.core.pipeline import AdaptivePipeline
from repro.core.policy import AdaptivePolicy
from repro.middleware.handlers import CompressionHandler
classes = (AdaptivePolicy, CodecExecutor, BlockEngine, AdaptivePipeline, CompressionHandler)
print(", ".join(f"{c.__name__} {len(inspect.signature(c).parameters)}" for c in classes))')
echo "== invariant: settable values <= $SETTABLE_CEILING," \
    "AdaptivePolicy keywords <= $POLICY_KEYWORD_CEILING," \
    "AdaptivePipeline keywords <= $PIPELINE_KEYWORD_CEILING"
policy_keywords=$(sed -nE 's/.*AdaptivePolicy ([0-9]+).*/\1/p' <<< "$keywords")
pipeline_keywords=$(sed -nE 's/.*AdaptivePipeline ([0-9]+).*/\1/p' <<< "$keywords")
if [ "$settable" -gt "$SETTABLE_CEILING" ] \
    || [ "$policy_keywords" -gt "$POLICY_KEYWORD_CEILING" ] \
    || [ "$pipeline_keywords" -gt "$PIPELINE_KEYWORD_CEILING" ]; then
    echo "FAIL: settable values $settable (ceiling $SETTABLE_CEILING), keywords: $keywords" >&2
    echo "(a new knob needs a caller that varies it; make a value only tests vary a constant)" >&2
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

# The sizes, in every log (print only): line counts, CLI options and the
# ratchet's numbers.
sizes="src/repro $(lines_of src/repro), scripts+benchmarks $(lines_of scripts benchmarks), tests $(lines_of tests) lines, cli options $(grep -c add_argument src/repro/cli.py), keywords: $keywords, settable values $settable"
echo "== check.sh: invariants ok, $tier1_summary; $sizes"
