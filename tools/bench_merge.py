#!/usr/bin/env python
"""Merge every ``BENCH_*.json`` summary into one ``BENCH_summary.json``.

Each benchmark module (``benchmarks/test_bench_online.py``,
``benchmarks/test_bench_verdict.py``, ...) writes a per-run summary of
the shape ``{"benchmark": <name>, "rows": [{"claim": ..., "speedup":
...}, ...]}``.  This tool collects them into a single artifact keyed by
benchmark and claim, with min/median/max speedups per claim, so the
perf trajectory across PRs is visible at a glance (CI uploads the
merged file; diffing two of them shows exactly which claim regressed).

Usage::

    python tools/bench_merge.py [--dir .] [--out BENCH_summary.json]
                                [--baseline BENCH_summary.json]

``--baseline`` names an earlier merged summary (typically the committed
``BENCH_summary.json``; it is read before ``--out`` is written, so the
two may be the same path).  Every claim whose ``median_speedup`` fell
by more than 25% against it is printed.  The comparison only reports:
it never changes the exit status, and an unreadable baseline is
reported and skipped.

Exits non-zero when a summary file is unreadable; an empty directory
(no ``BENCH_*.json`` at all) produces an empty-but-valid summary so the
CI step never fails on partial benchmark runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

#: A claim is reported when its median speedup falls below
#: ``(1 - REGRESSION_DROP)`` times the baseline's.
REGRESSION_DROP = 0.25


def _git_revision(directory: str) -> Optional[str]:
    """Best-effort commit id, recorded so artifacts are comparable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=directory,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def merge_summaries(directory: str) -> Dict[str, object]:
    """Read every ``BENCH_*.json`` under ``directory`` and merge them."""
    pattern = os.path.join(directory, "BENCH_*.json")
    merged: Dict[str, Dict[str, Dict[str, object]]] = {}
    sources: List[str] = []
    for path in sorted(glob.glob(pattern)):
        name = os.path.basename(path)
        if name == "BENCH_summary.json":
            continue  # never merge a previous merge
        with open(path) as handle:
            payload = json.load(handle)
        benchmark = str(payload.get("benchmark") or name)
        rows = payload.get("rows") or []
        if not isinstance(rows, list):
            raise ValueError(f"{path}: 'rows' must be a list")
        sources.append(name)
        claims = merged.setdefault(benchmark, {})
        for row in rows:
            claim = str(row.get("claim", "unlabelled"))
            entry = claims.setdefault(claim, {"rows": []})
            entry["rows"].append(row)
    for claims in merged.values():
        for entry in claims.values():
            speedups = [
                float(row["speedup"])
                for row in entry["rows"]
                if isinstance(row.get("speedup"), (int, float))
            ]
            if speedups:
                entry["min_speedup"] = min(speedups)
                entry["median_speedup"] = statistics.median(speedups)
                entry["max_speedup"] = max(speedups)
    return {
        "revision": _git_revision(directory),
        "sources": sources,
        "benchmarks": merged,
    }


def speedup_regressions(
    summary: Dict[str, object],
    baseline: Dict[str, object],
    drop: float = REGRESSION_DROP,
) -> List[str]:
    """One line per claim whose median speedup fell by more than ``drop``.

    Only claims with a ``median_speedup`` on both sides are compared; a
    claim missing from ``summary`` (a partial benchmark run) is skipped.
    """
    lines: List[str] = []
    current = summary.get("benchmarks") or {}
    for benchmark, claims in sorted((baseline.get("benchmarks") or {}).items()):
        for claim, entry in sorted(claims.items()):
            before = entry.get("median_speedup")
            after = (current.get(benchmark) or {}).get(claim, {}).get(
                "median_speedup"
            )
            if not isinstance(before, (int, float)) or not isinstance(
                after, (int, float)
            ):
                continue
            if after < before * (1.0 - drop):
                lines.append(
                    f"{benchmark}/{claim}: median speedup {before:.3g} -> "
                    f"{after:.3g} ({after / before - 1.0:+.0%})"
                )
    return lines


def _load_baseline(path: str) -> Optional[Dict[str, object]]:
    """The merged summary at ``path``, or None (reported) if unusable."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"baseline {path} unreadable, not compared: {exc}")
        return None
    if not isinstance(payload, dict):
        print(f"baseline {path} is not a merged summary, not compared")
        return None
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Merge BENCH_*.json files into BENCH_summary.json"
    )
    parser.add_argument(
        "--dir", default=".", help="directory holding the BENCH_*.json files"
    )
    parser.add_argument(
        "--out", default="BENCH_summary.json", help="merged output path"
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="earlier merged summary; print claims whose median speedup "
        f"dropped by more than {REGRESSION_DROP:.0%} (never fails)",
    )
    args = parser.parse_args(argv)
    baseline = _load_baseline(args.baseline) if args.baseline else None
    summary = merge_summaries(args.dir)
    with open(args.out, "w") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    n_claims = sum(len(c) for c in summary["benchmarks"].values())
    print(
        f"merged {len(summary['sources'])} file(s), "
        f"{len(summary['benchmarks'])} benchmark(s), {n_claims} claim(s) "
        f"-> {args.out}"
    )
    if baseline is not None:
        drops = speedup_regressions(summary, baseline)
        print(
            f"{len(drops)} claim(s) dropped more than {REGRESSION_DROP:.0%} "
            f"against {args.baseline}"
        )
        for line in drops:
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
