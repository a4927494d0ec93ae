"""Command-line front end.

Subcommands:

* ``build``      synthesize a circuit and write its JSON
* ``verify``     run the basis-state oracle against a named contract
* ``estimate``   schedule a circuit under an architecture model, print metrics
* ``scale``      tabulate analytic cost curves (JSON, or CSV with --csv)
* ``clock-for``  gate rate needed to hit a wall time
* ``crossover``  smallest problem size where the quantum curve wins

Exit codes: 0 success / verification passed, 1 verification found a
counterexample, 2 usage or parameter error or out of memory, 3 file I/O
error.  Results go to stdout, diagnostics to stderr, and identical
invocations produce byte-identical output.

The argument parser is built once per process, on the first ``run``, and
every later ``run`` only parses with it.  Each subcommand's ``_cmd_*``
function is bound into the parser when it is built, so a test that
replaces behaviour patches the module globals those functions call, not
the ``_cmd_*`` names themselves.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .architecture import NTC, check_conformance, decompose_toffoli, metrics, route_linear
from .arithmetic import (
    AdderKind,
    ModexpSpec,
    build_adder,
    build_const_modadd,
    build_controlled_adder,
    build_modexp,
    build_modmul_const,
)
from .circuit import Circuit, CircuitError
from .contracts import KINDS, contract
from .oracle import domain_size, exhaustive_check, randomized_check
from .scaling import (
    MODELS,
    ClassicalModel,
    QuantumModel,
    crossover_bits,
    required_clock,
    series,
)

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_IO = 3

_WALL_UNITS = {"s": 1.0, "h": 3600.0, "d": 86_400.0, "mo": 2_592_000.0}


class _UsageError(ValueError):
    """A bad argument; like every other ``ValueError``, it exits 2."""


def _parse_wall(text: str) -> float:
    m = re.fullmatch(r"([0-9.eE+-]+)(s|h|d|mo)?", text)
    if not m:
        raise _UsageError(f"cannot parse wall time {text!r} (use e.g. 3600, 2h, 30d, 1mo)")
    try:
        value = float(m.group(1))
    except ValueError:
        raise _UsageError(f"cannot parse wall time {text!r}") from None
    seconds = value * _WALL_UNITS[m.group(2) or "s"]
    if not math.isfinite(seconds):
        raise _UsageError(f"wall time {text!r} is not a finite number of seconds")
    return seconds


def _parse_floats(text: str) -> list[float]:
    if not text:
        return []
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad numeric list {text!r}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise _UsageError(f"bad numeric list {text!r}: values must be finite")
    return values


def _finite_float(text: str) -> float:
    """argparse type for a float option that must be finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _load_circuit(path: str) -> Circuit:
    return Circuit.loads(Path(path).read_text())


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"--{name} is required for this invocation")


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    adder = AdderKind(args.adder)
    if args.kind == "adder":
        circ = build_adder(adder, args.n)
    elif args.kind == "ctrl-adder":
        circ = build_controlled_adder(adder, args.n)
    elif args.kind == "modadd":
        _require(args, "modulus", "base")
        circ = build_const_modadd(args.n, args.base, args.modulus, adder=adder)
    elif args.kind == "modmul":
        _require(args, "modulus", "base")
        circ = build_modmul_const(args.n, args.base, args.modulus, adder=adder)
    else:
        _require(args, "modulus", "base")
        spec = ModexpSpec(
            n=args.n, modulus=args.modulus, base=args.base, s=args.mult, adder=adder
        )
        circ = build_modexp(spec)
    Path(args.out).write_text(circ.dumps())
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    circ = _load_circuit(args.circuit)
    if args.spec != "adder":
        _require(args, "modulus", "base")
    domain, fn = contract(args.spec, circ, args.modulus, args.base)
    if args.exhaustive:
        cases = domain_size(domain)
        cx = exhaustive_check(circ, fn, domain)
    else:
        cases = args.trials
        cx = randomized_check(circ, fn, domain, trials=args.trials, seed=args.seed)
    if cx is None:
        print(json.dumps({"result": "pass", "cases": cases}))
        return EXIT_OK
    print(json.dumps({"result": "counterexample", **asdict(cx)}, sort_keys=True))
    return EXIT_COUNTEREXAMPLE


# ----------------------------------------------------------------------
# estimate
# ----------------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.emit_routed is not None:
        if args.arch != "ntc":
            raise _UsageError("--emit-routed needs --arch ntc")
        if not args.emit_routed:
            raise _UsageError("--emit-routed needs a file path, got an empty one")
    circ = _load_circuit(args.circuit)
    if args.arch == "ntc":
        routed, _ = route_linear(decompose_toffoli(circ))
        report = check_conformance(routed, NTC)
        if not report.conforms:
            raise CircuitError(
                f"routing failed to produce an NTC circuit: {report.first_violation}"
            )
        if args.emit_routed is not None:
            Path(args.emit_routed).write_text(routed.dumps())
        circ = routed
    m = metrics(circ)
    print(json.dumps(vars(m), indent=2))
    return EXIT_OK


# ----------------------------------------------------------------------
# scale / clock-for / crossover
# ----------------------------------------------------------------------


def _fmt_sci(value: float | None) -> str:
    return "" if value is None else f"{value:.16e}"


def _model(name: str) -> QuantumModel:
    try:
        return MODELS[name]
    except KeyError:
        raise _UsageError(f"unknown model {name!r} (choose from bcdp,d,f)") from None


def _cmd_scale(args: argparse.Namespace) -> int:
    models = [_model(name) for name in args.models.split(",") if name]
    clocks, factors = _parse_floats(args.clocks), _parse_floats(args.compute_factors)
    rows = series(models, clocks, factors, args.n_from, args.n_to, args.points)
    if args.csv:
        lines = ["n,series,clock_hz,compute_factor,seconds"]
        for r in rows:
            lines.append(
                f"{r.n},{r.series},{_fmt_sci(r.clock_hz)},"
                f"{_fmt_sci(r.compute_factor)},{_fmt_sci(r.seconds)}"
            )
        Path(args.csv).write_text("\n".join(lines) + "\n")
    else:
        print(json.dumps([vars(r) for r in rows], indent=2))
    return EXIT_OK


def _cmd_clock_for(args: argparse.Namespace) -> int:
    hz = required_clock(_model(args.model), args.bits, _parse_wall(args.wall))
    print(f"{hz:.5g} Hz")
    return EXIT_OK


def _cmd_crossover(args: argparse.Namespace) -> int:
    bits = crossover_bits(
        _model(args.model),
        args.clock,
        ClassicalModel(compute_factor=args.compute_factor),
    )
    print("none" if bits is None else bits)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shorcost",
        description="Resource estimator and oracle harness for modular-exponentiation circuits.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="synthesize a circuit, write JSON")
    p.add_argument("--kind", required=True,
                   choices=["adder", "ctrl-adder", "modadd", "modmul", "modexp"])
    p.add_argument("--adder", default="cdkm", choices=sorted(k.value for k in AdderKind))
    p.add_argument("--n", type=int, required=True, help="register width in bits")
    p.add_argument("--modulus", type=int, help="modulus for modadd/modmul/modexp")
    p.add_argument("--base", type=int,
                   help="exponentiation base; doubles as the added/multiplied constant")
    p.add_argument("--mult", type=int, default=1,
                   help="modexp layout: 1 = serial, 2 = two-lane pipeline")
    p.add_argument("--out", required=True, help="output circuit JSON path")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check a circuit against a functional contract")
    p.add_argument("--circuit", required=True)
    p.add_argument("--spec", required=True, choices=KINDS)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--trials", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modulus", type=int)
    p.add_argument("--base", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("estimate", help="schedule under an architecture, print metrics")
    p.add_argument("--circuit", required=True)
    p.add_argument("--arch", required=True, choices=["ac", "ntc"])
    p.add_argument(
        "--emit-routed", help="also write the routed NTC circuit JSON here (needs --arch ntc)"
    )
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("scale", help="tabulate cost curves for plotting")
    p.add_argument("--models", default="bcdp", help="comma list from bcdp,d,f")
    p.add_argument("--clocks", default="1,1e3,1e6,1e9", help="comma list of hertz")
    p.add_argument("--compute-factors", default="1,1000",
                   help="comma list of classical compute factors ('' for none)")
    p.add_argument("--from", dest="n_from", type=int, default=512)
    p.add_argument("--to", dest="n_to", type=int, default=65536)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--csv", help="write CSV here instead of printing JSON")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("clock-for", help="clock rate needed for a wall time")
    p.add_argument("--model", required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--wall", required=True, help="seconds, or suffixed: 2h, 30d, 1mo")
    p.set_defaults(func=_cmd_clock_for)

    p = sub.add_parser("crossover", help="smallest n where the quantum curve wins")
    p.add_argument("--model", required=True)
    p.add_argument("--clock", type=_finite_float, required=True)
    p.add_argument("--compute-factor", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_crossover)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"shorcost: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"shorcost: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("shorcost: out of memory; try a smaller circuit or size", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
