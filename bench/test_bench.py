"""Tests of the benchmark harness itself, on the smoke inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import refs  # noqa: E402
import run  # noqa: E402
from child import WORKLOADS  # noqa: E402
from layers import TRACED, read_spans  # noqa: E402
from speed import SpeedProbe, kernel  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("meta ")
    return json.loads(lines[-1])


def program_moyal():
    sys.path.insert(0, str(ROOT / "src"))
    from twistedops import moyal

    return moyal


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the harness
# ---------------------------------------------------------------------------

def test_benchmark_file_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("selector, twists", [
    ("full:3", (Fraction(5, 12), Fraction(7, 12))),
    ("spin:6", (Fraction(5, 12), Fraction(7, 12))),
    ("sym:2", (Fraction(1, 3), Fraction(2, 3))),
])
def test_critical_twists(selector, twists):
    assert refs.critical_twists(selector) == twists


def test_moyal_component_low_orders():
    zeta, xi = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
    assert refs.moyal_component(zeta, xi, 0) == {(1, 1): 1}
    # C1 = (1/2){phi, psi} with {phi, psi} = d_xi phi d_zeta psi - d_zeta phi d_xi psi
    assert refs.moyal_component(xi, zeta, 1) == {(0, 0): Fraction(1, 2)}
    assert refs.moyal_component(zeta, xi, 1) == {(0, 0): Fraction(-1, 2)}


def test_parse_poly():
    assert refs.parse_poly("(1/2)*zeta^2*xi + (-3)*xi + (7)") == {
        (2, 1): Fraction(1, 2), (0, 1): Fraction(-3), (0, 0): Fraction(7)}
    assert refs.parse_poly("0") == {}
    with pytest.raises(ValueError):
        refs.parse_poly("(1+1i)*zeta")


def test_judges_flag_wrong_answers():
    rows = [{"p": p, "q": q, "Q": str(refs.pairing_value(p, q)), "matches_closed_form": True}
            for p in range(2) for q in range(2)]
    assert refs.judge_pairing(rows, 1) == (4, [])
    rows[3] = dict(rows[3], Q="1")
    assert len(refs.judge_pairing(rows, 1)[1]) == 1
    assert len(refs.judge_pairing(rows[:2], 1)[1]) == 2  # missing rows

    rows = program_moyal().component_table(1)
    assert refs.judge_components(rows, 1) == (9, [])
    xi_zeta = next(i for i, r in enumerate(rows) if (r["phi"], r["psi"]) == ("(1)*xi", "(1)*zeta"))
    assert rows[xi_zeta]["components"] == {0: "(1)*zeta*xi", 1: "(1/2)"}
    rows[xi_zeta] = dict(rows[xi_zeta], components={0: "(1)*zeta*xi", 1: "(-1/2)"})
    assert len(refs.judge_components(rows, 1)[1]) == 1
    assert len(refs.judge_components(rows[1:], 1)[1]) == 2  # plus one missing row


class Check:
    def __init__(self, name, status, witness=None):
        self.name, self.status, self.witness = name, status, witness


def test_report_and_control_judges():
    checks = [Check("critical-values", "pass", "5/12, 7/12"), Check("closure", "pass", "dimension 17")]
    assert refs.judge_report("full:3", checks, ("closure",)) == (2, [])
    checks[0] = Check("critical-values", "pass", "1/4, 3/4")
    assert len(refs.judge_report("full:3", checks, ("closure", "w-bracket"))[1]) == 2
    assert refs.judge_controls([Check("lowest-weight", "fail", "residual")]) == (1, [])
    assert len(refs.judge_controls([Check("lowest-weight", "pass")])[1]) == 1


def test_bidifferential_formula_matches_program():
    rows = program_moyal().component_table(5)
    assert refs.judge_components(rows, 5) == (441, [])


# ---------------------------------------------------------------------------
# The harness end to end, on smoke inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    out = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_trace_is_deterministic(workload):
    runs = [result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", "1", "--smoke")) for _ in range(2)]
    for out in runs:
        assert out["correct"] and out["failed"] == 0
        assert set(out["metrics"]) == set(run.per_layer_units())
    counts = [{k: m["value"] for k, m in out["metrics"].items()
               if k.endswith((".calls", ".distinct_share", ".success_share"))} for out in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())

    names, cols = read_spans(BENCH / "out" / f"{workload}-1.spans.gz")
    assert names == [entry[0] for entry in TRACED]
    assert all(p < i for i, p in enumerate(cols["parent"]))
    assert all(s <= e for s, e in zip(cols["start"], cols["end"]))
    for i, name in enumerate(names):
        if f"{name}.calls" in counts[0]:
            assert cols["name"].count(i) == counts[0][f"{name}.calls"]


def test_speed_probe_samples_and_scales():
    with SpeedProbe() as probe:
        while len(probe.costs) < 5:
            kernel()
    assert probe.starts == sorted(probe.starts) and probe.probe_s < probe.wall_s
    assert 0 < probe.scaled_s()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "lab-tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
