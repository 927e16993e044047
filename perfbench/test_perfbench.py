"""Tests of the benchmark itself:  python3 -m pytest perfbench

The smoke runs execute each workload on a handful of records with every
check; the arithmetic tests pin the benchmark's own exact field code.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from qzeta import Cyc, b1_mod2, global_dim, min_generators, parse_poly, qint  # noqa: E402
from run import Inputs, read_pool  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "records_per_s", "peak_rss_mb"}


def smoke(workload: str, trace: int = 0) -> dict:
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--smoke", "--trace", str(trace)],
                       cwd=os.path.dirname(HERE), capture_output=True,
                       text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, failed", [
    ("census-screen", 2),   # one F1 guard refusal, one F2 zero-noise record
    ("exact-cold", 0),
    ("deep-search", 0),
])
def test_smoke(workload, failed):
    out = smoke(workload)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == failed
    assert set(out["metrics"]) == END_TO_END


def test_traced_smoke_reports_every_layer():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    out = smoke("deep-search", trace=1)
    assert set(out["metrics"]) == per_layer
    assert out["metrics"]["statesum.states_visited"]["value"] > 0


def test_field_arithmetic():
    for r in (3, 4, 5, 6, 7):
        one = Cyc.const(r, 1)
        assert Cyc.zeta(r, 2 * r) == one
        assert Cyc.zeta(r, r) * Cyc.zeta(r, r) == one
        assert qint(r, r).is_zero()          # [r] = 0 at q = e^(i pi/r)
        # D = 1/TV(S^3) = r / (2 sin^2(pi/r))
        assert abs(global_dim(r).real() - r / (2 * math.sin(math.pi / r) ** 2)) < 1e-9
    assert global_dim(6) == Cyc.const(6, 12)


def test_parse_poly_reads_printed_values():
    v = parse_poly(5, "1/5 - 1/10*z^2 + 1/10*z^3")
    assert v * global_dim(5) == Cyc.const(5, 1)
    assert parse_poly(7, "-z + z^3 - 2/3*z^5") == (
        Cyc.zeta(7, 1) * Cyc.const(7, -1) + Cyc.zeta(7, 3)
        + Cyc.zeta(7, 5) * Cyc.const(7, "-2/3"))
    assert parse_poly(5, "0").is_zero()


def test_h1_helpers():
    assert min_generators("2 Z + Z_3") == 3
    assert b1_mod2("Z_2 + Z_6 + Z_3") == 2
    assert b1_mod2("3 Z") == 3


def test_inputs_follow_the_seed():
    a, b = Inputs("census-screen", 1), Inputs("census-screen", 1)
    assert a.variant == b.variant
    refs, walks = read_pool()
    assert len(refs) == 19 and all("#" not in name for name in refs)
    assert Inputs("census-screen", 2).variant != a.variant
