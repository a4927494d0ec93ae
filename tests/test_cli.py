import json
import subprocess
import sys

import pytest

from shorcost.arithmetic import build_const_modadd, build_modmul_const
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


@pytest.mark.parametrize(
    "build,spec,cases,first_bad,expected",
    [
        (["--kind", "modadd", "--n", "4", "--modulus", "15", "--base", "7"],
         "modadd", 15, {"t": 0}, {"t": 11}),
        (["--kind", "ctrl-adder", "--n", "3"], "adder", 256, None, None),
        (lambda: build_const_modadd(4, 7, 15, controlled=1),
         "modadd", 30, {"t": 0, "ctl": 1}, {"t": 11}),
        (lambda: build_const_modadd(4, 7, 15, controlled=2),
         "modadd", 60, {"t": 0, "ctl": 3}, {"t": 11}),
        (lambda: build_modmul_const(4, 7, 15, controlled=1),
         "modmul", 30, {"y": 1, "ctl": 1}, {"y": 11}),
    ],
    ids=["modadd", "ctrl-adder", "modadd-ctl1", "modadd-ctl2", "modmul-ctl1"],
)
def test_verify_counterexample_exit_code(tmp_path, capsys, build, spec, cases,
                                         first_bad, expected):
    """The right contract passes over every input, controls included; a
    wrong constant fails first where every control bit is set."""
    out = tmp_path / "m.json"
    if callable(build):
        out.write_text(build().dumps())
    else:
        assert run(["build", *build, "--out", str(out)]) == 0
    verify = ["verify", "--circuit", str(out), "--spec", spec, "--exhaustive",
              "--modulus", "15"]
    assert run(verify + ["--base", "7"]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": "pass", "cases": cases}
    if first_bad is None:
        return
    # deliberately claim the wrong constant
    assert run(verify + ["--base", "11"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == "counterexample"
    assert set(report) == {"result", "input_registers", "expected", "actual"}
    assert {name: report["input_registers"][name] for name in first_bad} == first_bad
    assert report["expected"] == expected


@pytest.mark.parametrize(
    "kind,argv",
    [
        ("modadd", ["--spec", "modadd", "--modulus", "0", "--base", "7"]),
        ("modmul", ["--spec", "modmul", "--modulus", "-15", "--base", "7"]),
        ("modexp", ["--spec", "modexp", "--modulus", "-15", "--base", "7"]),
        ("modexp", ["--spec", "modexp", "--modulus", "1", "--base", "7"]),
        ("modexp", ["--spec", "modexp", "--modulus", "15", "--base", "7",
                    "--trials", "0"]),
    ],
    ids=["modadd-modulus-0", "modmul-modulus--15", "modexp-modulus--15",
         "modexp-modulus-1", "trials-0"],
)
def test_verify_rejects_vacuous_runs(tmp_path, capsys, kind, argv):
    """A modulus below 2 or zero trials would check nothing (or the wrong
    thing) and must not report a verdict."""
    out = tmp_path / "c.json"
    assert run(["build", "--kind", kind, "--n", "4", "--modulus", "15",
                "--base", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    for mode in (["--exhaustive"], ["--trials", "8"]):
        assert run(["verify", "--circuit", str(out), *mode, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("shorcost: ")


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
    capsys.readouterr()
    assert run(["clock-for", "--model", "bcdp", "--bits", "64", "--wall", "1e"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot parse wall time '1e'" in captured.err
    assert run(["build", "--kind", "modexp", "--n", "4", "--modulus", "15",
                "--base", "7", "--mult", "3",
                "--out", str(tmp_path / "y.json")]) == 2  # s is 1 or 2
    assert run(["build", "--kind", "modexp", "--n", "3", "--modulus", "7",
                "--base", "3", "--mult", "2",
                "--out", str(tmp_path / "y.json")]) == 2  # the pipeline needs n >= 4
    capsys.readouterr()
    assert run(["build", "--kind", "modexp", "--n", "8", "--modulus", "221",
                "--base", "5", "--mult", "4",
                "--out", str(tmp_path / "z.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be 1 (serial) or 2 (two-lane pipeline)" in captured.err
    assert not (tmp_path / "z.json").exists()
    built, routed = tmp_path / "a.json", tmp_path / "routed.json"
    assert run(["build", "--kind", "adder", "--n", "3", "--out", str(built)]) == 0
    assert run(["estimate", "--circuit", str(built), "--arch", "ac",
                "--emit-routed", str(routed)]) == 2  # nothing is routed on AC
    captured = capsys.readouterr()
    assert captured.out == "" and "--emit-routed needs --arch ntc" in captured.err
    assert not routed.exists()
    before = set(tmp_path.iterdir())
    for arch, message in (("ntc", "--emit-routed needs a file path"),
                          ("ac", "--emit-routed needs --arch ntc")):
        assert run(["estimate", "--circuit", str(built), "--arch", arch,
                    "--emit-routed", ""]) == 2  # an empty path is no path
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
    assert set(tmp_path.iterdir()) == before


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


def test_estimate_ntc_exits_2_if_routing_leaves_a_violation(tmp_path, capsys, monkeypatch):
    import shorcost.cli as cli

    built = tmp_path / "a.json"
    assert run(["build", "--kind", "adder", "--n", "3", "--out", str(built)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "route_linear", lambda circ: (circ, None))
    assert run(["estimate", "--circuit", str(built), "--arch", "ntc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "routing failed to produce an NTC circuit" in captured.err


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


def test_verify_rejects_routed_document(tmp_path, capsys):
    """A routed circuit holds the CV gates of the Toffoli decomposition,
    which have no basis-state action: verify exits 2 and says so."""
    built, routed = tmp_path / "a.json", tmp_path / "r.json"
    assert run(["build", "--kind", "adder", "--n", "3", "--out", str(built)]) == 0
    assert run(["estimate", "--circuit", str(built), "--arch", "ntc",
                "--emit-routed", str(routed)]) == 0
    capsys.readouterr()
    assert run(["verify", "--circuit", str(routed), "--spec", "adder",
                "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-classical gate CV" in captured.err


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


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    """Runs share one parser; a failed parse leaves nothing behind, so the
    runs after it print what a first run prints."""
    import shorcost.cli as cli

    clock = ["clock-for", "--model", "bcdp", "--bits", "576", "--wall", "1mo"]
    bad = ["clock-for", "--model", "bcdp", "--bits", "many"]

    def outcome(argv):
        return run(argv), capsys.readouterr()

    cli._build_parser.cache_clear()
    first_bad = outcome(bad)
    cli._build_parser.cache_clear()
    first_clock = outcome(clock)
    assert first_clock == (0, ("3981.3 Hz\n", ""))
    assert first_bad[0] == 2 and first_bad[1].out == ""
    assert "invalid int value: 'many'" in first_bad[1].err

    parser = cli._build_parser()
    assert outcome(bad) == first_bad
    assert outcome(clock) == first_clock
    built = tmp_path / "c.json"
    assert run(["build", "--kind", "modexp", "--n", "4", "--modulus", "13",
                "--base", "2", "--out", str(built)]) == 0
    estimates = [outcome(["estimate", "--circuit", str(built), "--arch", "ac"])
                 for _ in range(2)]
    assert estimates[0] == estimates[1]
    assert estimates[0][0] == 0 and json.loads(estimates[0][1].out)["total_gates"] > 0
    assert cli._build_parser() is parser
