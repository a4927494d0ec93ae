import json
import subprocess
import sys

import pytest

from shorcost.cli import _parse_wall, run


def test_wall_time_suffixes():
    assert _parse_wall("2592000") == 2_592_000.0
    assert _parse_wall("1mo") == 2_592_000.0
    assert _parse_wall("2h") == 7200.0
    assert _parse_wall("30d") == 30 * 86400.0
    assert _parse_wall("1.5s") == 1.5
    with pytest.raises(Exception):
        _parse_wall("oneweek")


def test_build_verify_estimate_cycle(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["build", "--kind", "modexp", "--adder", "cdkm", "--n", "4",
                "--modulus", "15", "--base", "7", "--mult", "1",
                "--out", str(out)]) == 0
    capsys.readouterr()

    assert run(["verify", "--circuit", str(out), "--spec", "modexp",
                "--modulus", "15", "--base", "7", "--exhaustive"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"result": "pass", "cases": 256}

    assert run(["estimate", "--circuit", str(out), "--arch", "ac"]) == 0
    ac = json.loads(capsys.readouterr().out)
    assert set(ac) == {"depth", "total_gates", "width", "max_concurrency",
                       "mean_concurrency"}

    routed_path = tmp_path / "routed.json"
    assert run(["estimate", "--circuit", str(out), "--arch", "ntc",
                "--emit-routed", str(routed_path)]) == 0
    ntc = json.loads(capsys.readouterr().out)
    assert ntc["depth"] > ac["depth"]
    assert routed_path.exists()

    # the routed circuit really is nearest-neighbor two-qubit only
    from shorcost.architecture import NTC, check_conformance
    from shorcost.circuit import Circuit

    routed = Circuit.loads(routed_path.read_text())
    assert check_conformance(routed, NTC).conforms


def test_verify_counterexample_exit_code(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["build", "--kind", "modadd", "--n", "4", "--modulus", "15",
                "--base", "7", "--out", str(out)]) == 0
    # deliberately claim the wrong constant
    code = run(["verify", "--circuit", str(out), "--spec", "modadd",
                "--modulus", "15", "--base", "11", "--exhaustive"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == "counterexample"
    assert set(report) == {"result", "input_registers", "expected", "actual"}


def test_verify_randomized_deterministic(tmp_path, capsys):
    out = tmp_path / "a.json"
    run(["build", "--kind", "adder", "--adder", "condsum", "--n", "6",
         "--out", str(out)])
    capsys.readouterr()
    args = ["verify", "--circuit", str(out), "--spec", "adder",
            "--trials", "200", "--seed", "13"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["build", "--kind", "modadd", "--n", "4",
                "--out", str(tmp_path / "x.json")]) == 2  # missing modulus/base
    assert run(["clock-for", "--model", "nosuch", "--bits", "64",
                "--wall", "1mo"]) == 2
    assert run(["build", "--kind", "modexp", "--n", "4", "--modulus", "15",
                "--base", "7", "--mult", "3",
                "--out", str(tmp_path / "y.json")]) == 2  # s > n/2
    capsys.readouterr()


def test_verify_contract_mismatch_exits_2(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["build", "--kind", "modexp", "--n", "4", "--modulus", "15",
                "--base", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    for spec in ("adder", "modadd", "modmul"):
        assert run(["verify", "--circuit", str(out), "--spec", spec,
                    "--modulus", "15", "--base", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("shorcost: ") and "register" in captured.err


def test_verify_exhaustive_counts_cases_past_2_to_63(tmp_path, capsys, monkeypatch):
    """The pass report's case count is exact however large the domain."""
    import shorcost.cli as cli

    monkeypatch.setattr(cli, "exhaustive_check", lambda circ, fn, domain: None)
    out = tmp_path / "a.json"
    assert run(["build", "--kind", "adder", "--n", "40", "--out", str(out)]) == 0
    assert run(["verify", "--circuit", str(out), "--spec", "adder", "--exhaustive"]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": "pass", "cases": 1 << 81}


def test_clock_for_rejects_infinite_wall(capsys):
    assert run(["clock-for", "--model", "bcdp", "--bits", "576",
                "--wall", "1e999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_crossover_rejects_non_finite_clock(capsys):
    for value in ("nan", "inf", "-inf"):
        assert run(["crossover", "--model", "bcdp", f"--clock={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err
    assert run(["crossover", "--model", "bcdp", "--clock", "4000",
                "--compute-factor", "nan"]) == 2
    capsys.readouterr()


def test_scale_rejects_non_finite_numbers(tmp_path, capsys):
    assert run(["scale", "--clocks", "1,nan"]) == 2
    assert run(["scale", "--compute-factors", "inf"]) == 2
    csv_path = tmp_path / "x.csv"
    assert run(["scale", "--clocks", "nan", "--csv", str(csv_path)]) == 2
    assert not csv_path.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_missing_file_exits_3(capsys):
    assert run(["verify", "--circuit", "/nonexistent/c.json",
                "--spec", "adder"]) == 3
    assert run(["estimate", "--circuit", "/nonexistent/c.json",
                "--arch", "ac"]) == 3
    capsys.readouterr()


def test_clock_for_output(capsys):
    assert run(["clock-for", "--model", "bcdp", "--bits", "576",
                "--wall", "2592000"]) == 0
    assert capsys.readouterr().out == "3981.3 Hz\n"
    assert run(["clock-for", "--model", "f", "--bits", "576",
                "--wall", "1mo"]) == 0
    assert capsys.readouterr().out == "23.475 Hz\n"
    assert run(["clock-for", "--model", "d", "--bits", "576",
                "--wall", "1mo"]) == 0
    assert capsys.readouterr().out == "0.16818 Hz\n"


def test_crossover_output(capsys):
    assert run(["crossover", "--model", "bcdp", "--clock", "4000"]) == 0
    bits = int(capsys.readouterr().out)
    assert bits <= 576
    assert run(["crossover", "--model", "bcdp", "--clock", "5e-324"]) == 0
    assert capsys.readouterr().out == "none\n"


def test_scale_csv_round_trips(tmp_path):
    csv_path = tmp_path / "fig.csv"
    argv = ["scale", "--models", "bcdp,d,f", "--clocks", "1,1e6",
            "--compute-factors", "1,1000", "--from", "512", "--to", "65536",
            "--points", "8", "--csv", str(csv_path)]
    assert run(argv) == 0
    text = csv_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,series,clock_hz,compute_factor,seconds"
    # 3 models x 2 clocks x 8 points + 2 factors x 8 points
    assert len(lines) - 1 == 3 * 2 * 8 + 2 * 8

    from shorcost.scaling import ALG_D, ALG_F, BCDP, series

    rows = series([BCDP, ALG_D, ALG_F], [1.0, 1e6], [1.0, 1000.0], 512, 65536, 8)
    for line, row in zip(lines[1:], rows):
        n, name, clock, factor, seconds = line.split(",")
        assert int(n) == row.n and name == row.series
        assert (float(clock) if clock else None) == row.clock_hz
        assert (float(factor) if factor else None) == row.compute_factor
        assert float(seconds) == row.seconds

    # byte-identical on repeat
    second_path = tmp_path / "fig2.csv"
    argv[-1] = str(second_path)
    assert run(argv) == 0
    assert second_path.read_bytes() == csv_path.read_bytes()


def test_scale_json_output(capsys):
    assert run(["scale", "--models", "bcdp", "--clocks", "1",
                "--compute-factors", "", "--from", "512", "--to", "2048",
                "--points", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in rows] == [512, 1024, 2048]
    assert all(r["series"] == "BCDP" for r in rows)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shorcost.cli", "clock-for", "--model", "bcdp",
         "--bits", "576", "--wall", "1mo"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3981.3 Hz\n"


def test_scale_rejects_overflowing_times(capsys):
    assert run(["scale", "--models", "bcdp", "--clocks", "1e-320",
                "--compute-factors", "", "--points", "2",
                "--from", "512", "--to", "1024"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows" in captured.err


def test_clock_for_rejects_overflowing_clock(capsys):
    assert run(["clock-for", "--model", "bcdp", "--bits", "576",
                "--wall", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows" in captured.err


@pytest.mark.parametrize(
    "operands,width,message",
    [
        ([0.5, 1], 3, "integers"),
        ([True, 1], 3, "integers"),
        ([0, 3], 3, "out of range"),
        ([1, 1], 3, "distinct"),
        ([0, 1], 2.0, "width must be an integer"),
        ([0, 1], 1 << 31, "2^31"),
    ],
)
def test_verify_and_estimate_reject_bad_documents(tmp_path, capsys, operands, width, message):
    """A document that does not describe a valid circuit exits 2 with a
    message, before any simulation or scheduling."""
    doc = {"width": width, "registers": [{"name": "a", "offset": 0, "length": 1}],
           "gates": [{"kind": "CNOT", "operands": operands}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (["verify", "--circuit", str(path), "--spec", "adder"],
                 ["estimate", "--circuit", str(path), "--arch", "ac"],
                 ["estimate", "--circuit", str(path), "--arch", "ntc"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
