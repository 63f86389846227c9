"""``--compare A.json B.json``: did B get worse than A, by the benchmark's own bounds?

One row per workload x end-to-end metric: both medians, both quartile
pairs, the bound, and a verdict.

* ``worse``      B's median is worse than A's by more than the bound
* ``better``     B's median is better by more than either side's quartile spread
* ``same``       neither
* ``unresolved`` either side's quartile spread exceeds the bound, so a
                 shift of one bound could hide in it — unless every B run
                 beats (``better``) or loses to (``worse``) every A run
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from harness import quartiles


def _values(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> values`` over the file's untraced runs."""
    with open(path) as handle:
        document = json.load(handle)
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in document["runs"]:
        if run.get("trace"):
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        metrics.setdefault("failed_share", []).append(run["failed"] / run["attempted"])
        metrics.setdefault("host_slowdown", []).append(run["detail"]["host_slowdown"])
    return out


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive worsening = worse
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worsening = sign * (b_med - a_med) / abs(a_med) if a_med else sign * (b_med - a_med)
    spread = max(
        (a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
    )
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b) and worsening > bound:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < 0 and abs(b_med - a_med) > max(a_q3 - a_q1, b_q3 - b_q1):
        return "better"
    return "same"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print the table; returns 1 when any row is ``worse``."""
    a, b = _values(path_a), _values(path_b)
    # Failed ops are held to zero tolerance, whatever the metric bounds say.
    rows = spec["end_to_end"] + [
        {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}
    ]
    print(f"A = {path_a}\nB = {path_b}")
    header = (f"{'workload':<18s} {'metric':<15s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'bound':>6s}  verdict")
    print(header)
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            print(f"{workload:<18s} missing from {'A' if workload not in a else 'B'}")
            worse += 1
            continue
        for row in rows:
            va, vb = a[workload][row["name"]], b[workload][row["name"]]
            result = verdict(va, vb, row["better"], row["bound"])
            worse += result == "worse"
            print(f"{workload:<18s} {row['name']:<15s} {_cell(va):>34s} {_cell(vb):>34s} "
                  f"{row['bound']:>6.3f}  {result}")
        # Not judged: tells the reader whether both sides saw the same host.
        slow_a, slow_b = a[workload]["host_slowdown"], b[workload]["host_slowdown"]
        print(f"{workload:<18s} {'(host_slowdown)':<15s} {_cell(slow_a):>34s} {_cell(slow_b):>34s}")
    print(f"runs per workload: A={_runs(a)} B={_runs(b)};  {worse} row(s) worse")
    return 1 if worse else 0


def _cell(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def _runs(values: Dict[str, Dict[str, List[float]]]) -> int:
    return min(len(next(iter(m.values()))) for m in values.values())
