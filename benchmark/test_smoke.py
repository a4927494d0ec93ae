"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, CliRoundtrip, LowerNtc, VerifyAdders, VerifyModexp  # noqa: E402


def tiny(name: str, tmp_path: Path, **kw):
    if name == "cli_roundtrip":
        return CliRoundtrip(n=4, workdir=tmp_path, **kw)
    sizes = {"verify_modexp": 4, "verify_adders": 3, "lower_ntc": 4}
    return WORKLOADS[name](n=sizes[name], **kw)


def short(wl, trace: bool = False, **kw) -> dict:
    # Four repetitions, so that each instance of the pool runs once.
    return run.measure(wl, 7, 0.01, trace, setup_runs=1, min_reps=4, **kw)


def test_manifest_matches_the_code():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in manifest["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = short(tiny(name, tmp_path), trace)
    assert result["correct"], result["report"]
    assert result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize(
    "wl",
    [
        VerifyModexp(n=4, reference=lambda b, e, m: (pow(b, e, m) + 1) % m),
        VerifyAdders(n=3, reference=lambda a, b: a + b + 1),
        LowerNtc(n=4, reference=lambda b, e, m: pow(b, e + 1, m)),
    ],
    ids=["verify_modexp", "verify_adders", "lower_ntc"],
)
def test_a_wrong_reference_fails_the_run(wl):
    result = short(wl)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_a_wrong_expected_record_fails_the_run():
    wl = VerifyModexp(n=4)
    good = short(wl)["snapshot"]
    assert short(wl, expected=good)["correct"]
    bad = json.loads(json.dumps(good))
    bad[0]["record"]["gates"] += 1
    assert not short(wl, expected=bad)["correct"]


def test_seeds_draw_odd_full_width_moduli_deterministically():
    wl = VerifyModexp(n=6)
    assert wl.cases(3) == wl.cases(3) != wl.cases(4)
    for case in wl.cases(3) + wl.cases(4):
        assert case.modulus % 2 == 1 and case.modulus.bit_length() == 6
        assert math.gcd(case.base, case.modulus) == 1


def test_tail_leaves_ten_samples_above_it():
    times = [float(t) for t in range(40)]
    value, pct, beyond = run.tail(times)
    assert value == 29.0 and sum(t > value for t in times) == beyond == 10
    assert round(pct) == 74


def test_host_scaling_states_times_at_reference_speed():
    at_reference = [dict(hostspeed.REFERENCE_S)]
    assert hostspeed.slowdown(at_reference) == 1.0
    twice = [{k: 2 * v for k, v in hostspeed.REFERENCE_S.items()}]
    assert hostspeed.slowdown(at_reference + twice) == 1.5
    scaled = run.host_scaled(
        {"cli.build_s": 3.0, "circuit.dumps_mb_per_s": 3.0, "circuit.bytes": 3.0},
        run.PER_LAYER, 1.5,
    )
    assert scaled == {"cli.build_s": 2.0, "circuit.dumps_mb_per_s": 4.5, "circuit.bytes": 3.0}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "verify_modexp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
