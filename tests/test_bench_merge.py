"""``tools/bench_merge.py --baseline``: report speedup drops, never fail."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_merge.py"


@pytest.fixture(scope="module")
def bench_merge():
    spec = importlib.util.spec_from_file_location("bench_merge", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_bench(directory: Path, name: str, rows) -> None:
    payload = {"benchmark": name, "rows": rows}
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


def _baseline(claims):
    return {
        "benchmarks": {
            "verdict": {
                claim: {"median_speedup": speedup} for claim, speedup in claims.items()
            }
        }
    }


def test_prints_only_claims_that_dropped_past_the_band(
    bench_merge, tmp_path, capsys
):
    _write_bench(
        tmp_path,
        "verdict",
        [
            {"claim": "kept", "speedup": 1.9},  # -5%: inside the band
            {"claim": "dropped", "speedup": 1.4},  # -30%
            {"claim": "edge", "speedup": 1.5},  # exactly -25%: not flagged
            {"claim": "new", "speedup": 9.0},  # absent from the baseline
        ],
    )
    baseline = tmp_path / "BENCH_summary.json"
    baseline.write_text(
        json.dumps(
            _baseline({"kept": 2.0, "dropped": 2.0, "edge": 2.0, "gone": 3.0})
        )
    )
    # --out overwrites the baseline path: it must be read first.
    code = bench_merge.main(
        ["--dir", str(tmp_path), "--out", str(baseline), "--baseline", str(baseline)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1 claim(s) dropped more than 25%" in out
    assert "verdict/dropped: median speedup 2 -> 1.4 (-30%)" in out
    for claim in ("kept", "edge", "new", "gone"):
        assert f"verdict/{claim}" not in out
    merged = json.loads(baseline.read_text())
    assert merged["benchmarks"]["verdict"]["dropped"]["median_speedup"] == 1.4


def test_regressions_skip_claims_without_a_median(bench_merge):
    summary = {"benchmarks": {"verdict": {"a": {"rows": []}}}}
    assert bench_merge.speedup_regressions(summary, _baseline({"a": 2.0})) == []


@pytest.mark.parametrize("content", ["not json", "[1, 2]", None])
def test_unusable_baseline_never_fails(bench_merge, tmp_path, capsys, content):
    baseline = tmp_path / "baseline.json"
    if content is not None:
        baseline.write_text(content)
    code = bench_merge.main(
        [
            "--dir",
            str(tmp_path),
            "--out",
            str(tmp_path / "out.json"),
            "--baseline",
            str(baseline),
        ]
    )
    assert code == 0
    assert "not compared" in capsys.readouterr().out
    assert (tmp_path / "out.json").exists()
