"""Benchmark-suite configuration.

Every benchmark regenerates one paper artifact at reduced-but-honest
scale, wraps the regeneration in ``pytest-benchmark`` timing, and asserts
the published *shape* on the produced rows.  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os

import pytest


@pytest.fixture(scope="module", autouse=True)
def bench_summary_artifact(request):
    """Write a module's ``_SUMMARY_ROWS`` after its last test.

    ``test_bench_<name>.py`` writes ``{"benchmark": name, "rows": ...}``
    to the path in ``BENCH_<NAME>_JSON``, and only when that variable is
    set: a plain run from the repository root leaves the committed
    ``BENCH_*.json`` files alone.  CI sets the variable for every module
    whose summary it uploads.
    """
    yield
    rows = getattr(request.module, "_SUMMARY_ROWS", None)
    name = request.module.__name__.rpartition("test_bench_")[2]
    path = os.environ.get(f"BENCH_{name.upper()}_JSON")
    if not rows or not path:
        return
    with open(path, "w") as handle:
        json.dump({"benchmark": name, "rows": rows}, handle, indent=2)


def pytest_configure(config):
    # Benchmarks are deterministic (seeded); one timing round is
    # representative and keeps the whole suite fast enough to gate CI.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False
