"""The four benchmark workloads.

Each workload draws a pool of ``POOL`` instances from the seed and runs one
instance per repetition through shorcost's public API.  ``rep`` is the
timed part and holds only calls into the library (plus planting a fault
in ``verify_adders``).  ``check`` and ``finish`` verify the outputs and
derive the count metrics; the runner calls them outside every timed
region.

Sizes are set so that one repetition takes 0.3-1.5 s on a 2-core machine
and a run collects tens of repetitions; the workloads keep the layer mix
of their larger versions (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from shorcost import (
    AC,
    NTC,
    AdderKind,
    Circuit,
    ModexpSpec,
    build_controlled_adder,
    build_modexp,
    check_conformance,
    cli,
    decompose_toffoli,
    exhaustive_check,
    metrics,
    randomized_check,
    route_linear,
)

from reference import apply_gate, longest_path_depth, pack, unpack, walk
from tracing import NullTracer

# Instances per run.  Circuit sizes move by 2-10% from one (modulus, base)
# pair to the next; counts are summed over the pool, and the pool takes one
# modulus from each quarter of the range, which keeps the seed-to-seed
# spread of the sums at a few percent.
POOL = 4

# Inputs pushed through the reference walker per instance, once per run.
SPOT_CHECKS = 8

COUNT_KEYS = ("qubits", "ac_depth", "ntc_depth", "ntc_swaps", "circuit_bytes")


@dataclass(frozen=True)
class ModexpCase:
    n: int
    modulus: int
    base: int
    trial_seed: int


@dataclass(frozen=True)
class AdderCase:
    n: int
    faults: tuple[tuple[str, int], ...]  # (adder kind, index of the gate removed)


def draw_modexp_pool(rng: random.Random, n: int) -> list[ModexpCase]:
    """One instance from each quarter of the odd n-bit moduli with the top
    bit set (n >= 4), each with a base coprime to its modulus."""
    odd = range((1 << (n - 1)) + 1, 1 << n, 2)
    quarter = len(odd) // POOL
    pool = []
    for k in range(POOL):
        modulus = rng.choice(odd[k * quarter:(k + 1) * quarter])
        base = rng.choice([b for b in range(2, modulus) if math.gcd(b, modulus) == 1])
        pool.append(ModexpCase(n, modulus, base, rng.randrange(1 << 31)))
    return pool


def serial_modexp(case: ModexpCase) -> Circuit:
    return build_modexp(ModexpSpec(n=case.n, modulus=case.modulus, base=case.base))


def modexp_spec(reference, base: int, modulus: int):
    return lambda v: {"r": reference(base, v["e"], modulus)}


def lowered_counts(circ: Circuit) -> tuple[dict, list[str]]:
    """AC and NTC counts of a circuit the verify workloads checked.  The AC
    depth is checked against the benchmark's own longest-path pass and the
    routing against NTC; ``lower_ntc`` checks NTC depths the same way."""
    problems = []
    ac_depth = metrics(circ).depth
    if ac_depth != longest_path_depth(circ.gates, circ.width):
        problems.append(f"AC depth {ac_depth} is not the longest path")
    decomposed = decompose_toffoli(circ)
    routed, _ = route_linear(decomposed)
    if not check_conformance(routed, NTC).conforms:
        problems.append("routed circuit violates NTC")
    return {
        "ac_depth": ac_depth,
        "ntc_depth": metrics(routed).depth,
        "ntc_swaps": len(routed) - len(decomposed),
    }, problems


def spot_check_modexp(circ: Circuit, case: ModexpCase, reference) -> list[str]:
    """Walk a few seeded exponents through the circuit with the reference
    walker: r must hold the reference power and every other register must
    return to its input value."""
    rng = random.Random(case.trial_seed)
    problems = []
    for _ in range(SPOT_CHECKS):
        e = rng.randrange(1 << (2 * case.n))
        got = unpack(circ.registers, walk(circ.gates, pack(circ.registers, {"e": e})))
        want = {name: 0 for name in got}
        want.update(e=e, r=reference(case.base, e, case.modulus))
        if got != want:
            problems.append(f"walker: e={e} gives {got}, reference {want}")
    return problems


class Workload:
    name: str
    why: str
    ops: int  # checked calls into shorcost per repetition
    work_unit: str  # what work_per_s counts
    n: int  # register width

    def cases(self, seed: int) -> list:
        """The instance pool the seed draws; modexp workloads by default."""
        return draw_modexp_pool(random.Random(f"{self.name}:{seed}"), self.n)

    def rep(self, case, tr) -> dict:
        """One timed repetition.  The result carries ``work`` and, when the
        rate is not taken over the whole repetition, ``work_s``."""
        raise NotImplementedError

    def check(self, case, out: dict, first: bool) -> tuple[dict, list[str]]:
        """Counts that must repeat exactly, and the problems found.  The
        slow reference checks run only on an instance's first repetition."""
        raise NotImplementedError

    def finish(self, case) -> tuple[dict, list[str]]:
        """Counts the repetitions do not produce, computed once per
        instance after the timed loop."""
        return {}, []

    def replay(self, case, tr) -> dict | None:
        return None


class VerifyModexp(Workload):
    name = "verify_modexp"
    why = "oracle gate loop: build serial modexp and check all 2^(2n) exponents; no lowering or JSON"
    ops = 2
    work_unit = "basis states checked per second"

    def __init__(self, n: int = 6, reference=pow) -> None:
        self.n = n
        self.reference = reference

    def rep(self, case, tr):
        with tr.span("arithmetic", "build_modexp") as c:
            circ = serial_modexp(case)
            c["gates"] = len(circ)
        states = 1 << (2 * case.n)
        spec = modexp_spec(self.reference, case.base, case.modulus)
        with tr.span("oracle", "exhaustive_check", states=states, gates=len(circ)) as c:
            verdict = exhaustive_check(circ, tr.spec(spec, c), {"e": range(states)})
        return {"circuit": circ, "verdict": verdict, "work": states}

    def check(self, case, out, first):
        circ = out["circuit"]
        problems = []
        if out["verdict"] is not None:
            problems.append(f"verdict: counterexample on a correct circuit: {out['verdict']}")
        if first:
            problems += spot_check_modexp(circ, case, self.reference)
        return {"gates": len(circ), "qubits": circ.width}, problems

    def finish(self, case):
        circ = serial_modexp(case)
        counts, problems = lowered_counts(circ)
        counts["circuit_bytes"] = len(circ.dumps())
        return counts, problems


def adder_reference(a: int, b: int) -> int:
    return a + b


class VerifyAdders(Workload):
    name = "verify_adders"
    why = "oracle per-input cost: exhaustive checks of three tiny controlled adders and a planted-fault copy of each"
    ops = 9
    work_unit = "basis states checked per second"

    def __init__(self, n: int = 6, reference=adder_reference) -> None:
        self.n = n
        self.reference = reference

    def domain(self, n):
        full = 1 << n
        return {"a": range(full), "b": range(full), "carry_out": range(2), "ctl": range(2)}

    def spec(self, n):
        full, reference = 1 << n, self.reference

        def fn(v):
            if v["ctl"] == 0:
                return {}
            total = reference(v["a"], v["b"])
            return {"b": total % full, "carry_out": v["carry_out"] ^ (total >> n)}

        return fn

    def cases(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        built = {k: build_controlled_adder(k, self.n) for k in AdderKind}
        return [
            AdderCase(self.n, tuple((k.value, self._draw_fault(rng, built[k])) for k in AdderKind))
            for _ in range(POOL)
        ]

    def _draw_fault(self, rng, circ) -> int:
        """A gate whose removal the domain must expose.  The gate changes
        the state a domain input reaches it with, and the rest of the
        circuit is a bijection, so that input's output changes too."""
        domain = self.domain(self.n)
        while True:
            pos = rng.randrange(len(circ))
            x = pack(circ.registers, {k: rng.choice(v) for k, v in domain.items()})
            state = walk(circ.gates[:pos], x)
            g = circ.gates[pos]
            if apply_gate(g.kind.value, g.operands, state) != state:
                return pos

    def rep(self, case, tr):
        domain, spec = self.domain(case.n), self.spec(case.n)
        states = math.prod(len(v) for v in domain.values())
        results = []
        for kind, pos in case.faults:
            with tr.span("arithmetic", "build_controlled_adder") as c:
                circ = build_controlled_adder(AdderKind(kind), case.n)
                c["gates"] = len(circ)
            faulty = Circuit(circ.width, circ.registers)
            for i, g in enumerate(circ.gates):
                if i != pos:
                    faulty.append(g)
            with tr.span("oracle", "exhaustive_check", states=states, gates=len(circ)) as c:
                good = exhaustive_check(circ, tr.spec(spec, c), domain)
            with tr.span("oracle", "exhaustive_check", states=states, gates=len(faulty)) as c:
                bad = exhaustive_check(faulty, tr.spec(spec, c), domain)
            results.append((kind, circ, faulty, good, bad))
        return {"adders": results, "work": 2 * len(results) * states}

    def check(self, case, out, first):
        spec = self.spec(case.n)
        problems = []
        record = {"qubits": 0}
        rng = random.Random(str(case))
        for kind, circ, faulty, good, bad in out["adders"]:
            record["qubits"] += circ.width
            record[f"{kind}_gates"] = len(circ)
            if good is not None:
                problems.append(f"verdict: {kind} adder failed: {good}")
            if bad is None:
                problems.append(f"verdict: {kind} planted fault passed")
            else:
                problems += self._confirm(kind, faulty, bad, spec)
            if first:
                domain = self.domain(case.n)
                for _ in range(SPOT_CHECKS):
                    inp = {k: rng.choice(v) for k, v in domain.items()}
                    got = unpack(circ.registers, walk(circ.gates, pack(circ.registers, inp)))
                    want = {name: inp.get(name, 0) for name in got}
                    want.update(spec(inp))
                    if got != want:
                        problems.append(f"walker: {kind} on {inp} gives {got}, reference {want}")
        return record, problems

    def _confirm(self, kind, faulty, cx, spec) -> list[str]:
        """The counterexample must be real: the reference walker reproduces
        the reported output, and it differs from the reference."""
        regs = faulty.registers
        inputs = {r.name: cx.input_registers[r.name] for r in regs}
        got = unpack(regs, walk(faulty.gates, pack(regs, inputs)))
        want = dict(inputs)
        want.update(spec(inputs))
        if got != cx.actual or got == want or cx.expected != spec(inputs):
            return [f"verdict: {kind} counterexample {cx} not confirmed by the walker"]
        return []

    def finish(self, case):
        counts = {"ac_depth": 0, "ntc_depth": 0, "ntc_swaps": 0, "circuit_bytes": 0}
        problems = []
        for kind, _ in case.faults:
            circ = build_controlled_adder(AdderKind(kind), case.n)
            one, found = lowered_counts(circ)
            for key, value in one.items():
                counts[key] += value
            counts["circuit_bytes"] += len(circ.dumps())
            problems += found
        return counts, problems


class LowerNtc(Workload):
    name = "lower_ntc"
    why = "architecture and circuit IR: build modexp, schedule on AC, lower to NTC by decompose, route and conformance, schedule again; no oracle"
    ops = 6
    work_unit = "routed NTC gates emitted per second of decompose + route"

    def __init__(self, n: int = 5, reference=pow) -> None:
        self.n = n
        self.reference = reference

    def rep(self, case, tr):
        with tr.span("arithmetic", "build_modexp") as c:
            circ = serial_modexp(case)
            c["gates"] = len(circ)
        with tr.span("scheduler", "metrics_ac", gates=len(circ)):
            m_ac = metrics(circ)
        t0 = perf_counter()
        with tr.span("architecture", "decompose_toffoli", gates=len(circ)):
            decomposed = decompose_toffoli(circ)
        with tr.span("architecture", "route_linear", gates=len(decomposed)) as c:
            routed, _ = route_linear(decomposed)
            c["routed"] = len(routed)
        lower_s = perf_counter() - t0
        with tr.span("architecture", "check_conformance", gates=len(routed)):
            report = check_conformance(routed, NTC)
        with tr.span("scheduler", "metrics_ntc", gates=len(routed)):
            m_ntc = metrics(routed)
        return {
            "circuit": circ,
            "routed": routed,
            "swaps": len(routed) - len(decomposed),
            "ac": m_ac,
            "ntc": m_ntc,
            "conforms": report.conforms,
            "work": len(routed),
            "work_s": lower_s,
        }

    def check(self, case, out, first):
        circ, routed = out["circuit"], out["routed"]
        problems = []
        if not out["conforms"]:
            problems.append("routed circuit violates NTC")
        record = {
            "gates": len(circ),
            "qubits": circ.width,
            "ac_depth": out["ac"].depth,
            "ntc_gates": len(routed),
            "ntc_depth": out["ntc"].depth,
            "ntc_swaps": out["swaps"],
        }
        if first:
            if record["ac_depth"] != longest_path_depth(circ.gates, circ.width):
                problems.append("AC depth is not the longest path")
            if record["ntc_depth"] != longest_path_depth(routed.gates, routed.width):
                problems.append("NTC depth is not the longest path")
            problems += spot_check_modexp(circ, case, self.reference)
        return record, problems

    def finish(self, case):
        return {"circuit_bytes": len(serial_modexp(case).dumps())}, []


# Commands whose output does not depend on the seed, with what they print
# (``scale`` by the sha256 of its 14 kB of JSON).
CURVES = {
    "scale": (["scale", "--models", "bcdp,d,f"],
              "ba2080f9c303c724007f2273a57dfab1adcf5270f93abf81b13b2f1f0ee5fb34"),
    "clock-for": (["clock-for", "--model", "bcdp", "--bits", "576", "--wall", "1mo"], "3981.3 Hz\n"),
    "crossover": (["crossover", "--model", "bcdp", "--clock", "4000"], "523\n"),
}


class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    why = "JSON CLI in-process: build pipelined modexp, verify, estimate on AC and NTC with the routed circuit written, then the curve commands"
    ops = 7
    work_unit = "routed NTC gates emitted per second of estimate --arch ntc"

    def __init__(self, n: int = 4, workdir: Path | None = None) -> None:
        self.n = n
        self.workdir = workdir  # where the CLI writes its circuit files

    def _paths(self, case):
        tag = f"{case.modulus}-{case.base}"
        return self.workdir / f"c-{tag}.json", self.workdir / f"routed-{tag}.json"

    def commands(self, case):
        built, routed = self._paths(case)
        m = ["--modulus", str(case.modulus), "--base", str(case.base)]
        return [
            ("build", ["build", "--kind", "modexp", "--n", str(case.n), *m, "--mult", "2", "--out", str(built)]),
            ("verify", ["verify", "--circuit", str(built), "--spec", "modexp", *m, "--seed", str(case.trial_seed)]),
            ("estimate_ac", ["estimate", "--circuit", str(built), "--arch", "ac"]),
            ("estimate_ntc", ["estimate", "--circuit", str(built), "--arch", "ntc", "--emit-routed", str(routed)]),
            *((label, argv) for label, (argv, _) in CURVES.items()),
        ]

    def rep(self, case, tr):
        results = {}
        ntc_s = 0.0
        for label, argv in self.commands(case):
            buf = io.StringIO()
            t0 = perf_counter()
            with tr.span("cli", label) as c, contextlib.redirect_stdout(buf):
                rc = cli.run(argv)
                c["exit"] = rc
            if label == "estimate_ntc":
                ntc_s = perf_counter() - t0
            results[label] = (rc, buf.getvalue())
        rc, text = results["estimate_ntc"]
        routed_gates = json.loads(text)["total_gates"] if rc == 0 else 0
        return {"results": results, "work": routed_gates, "work_s": ntc_s}

    def check(self, case, out, first):
        results = out["results"]
        problems = [f"{label} exited {rc}" for label, (rc, _) in results.items() if rc != 0]
        printed = {label: text for label, (_, text) in results.items()}
        printed["scale"] = hashlib.sha256(printed["scale"].encode()).hexdigest()
        want = {
            "build": "",
            "verify": json.dumps({"result": "pass", "cases": 256}) + "\n",
            **{label: text for label, (_, text) in CURVES.items()},
        }
        for label, text in want.items():
            if printed[label] != text:
                problems.append(f"{label} printed {printed[label]!r}, expected {text!r}")
        built, routed = self._paths(case)
        record = {"circuit_bytes": built.stat().st_size + routed.stat().st_size}
        for arch in ("ac", "ntc"):
            rc, text = results[f"estimate_{arch}"]
            m = json.loads(text) if rc == 0 else {}
            record[f"{arch}_metrics"] = m
        record["qubits"] = record["ac_metrics"].get("width", 0)
        record["ac_depth"] = record["ac_metrics"].get("depth", 0)
        record["ntc_depth"] = record["ntc_metrics"].get("depth", 0)
        if first:
            found = self.replay(case, None)
            problems += self._compare_replay(case, record, found)
            record["ntc_swaps"] = found["swaps"]
        return record, problems

    def replay(self, case, tr):
        """The library calls ``cli.run`` makes for this instance, in order,
        with the circuit reloaded from JSON before each command as the CLI
        does.  Traced runs use it to split the CLI's time across modules;
        the first repetition of each instance uses it as the reference."""
        tr = tr or NullTracer()
        with tr.span("arithmetic", "build_modexp") as c:
            circ = build_modexp(ModexpSpec(n=case.n, modulus=case.modulus, base=case.base, s=2))
            c["gates"] = len(circ)
        with tr.span("circuit", "dumps") as c:
            text = circ.dumps()
            c["bytes"] = len(text)
        with tr.span("circuit", "loads", bytes=len(text)):
            circ = Circuit.loads(text)
        domain = {"e": range(1 << (2 * case.n))}
        spec = modexp_spec(pow, case.base, case.modulus)
        with tr.span("oracle", "randomized_check", states=256, gates=len(circ)) as c:
            verdict = randomized_check(circ, tr.spec(spec, c), domain, trials=256, seed=case.trial_seed)
        with tr.span("circuit", "loads", bytes=len(text)):
            circ = Circuit.loads(text)
        with tr.span("architecture", "check_conformance", gates=len(circ)):
            conforms_ac = check_conformance(circ, AC).conforms
        with tr.span("scheduler", "metrics_ac", gates=len(circ)):
            m_ac = metrics(circ)
        with tr.span("circuit", "loads", bytes=len(text)):
            circ = Circuit.loads(text)
        with tr.span("architecture", "decompose_toffoli", gates=len(circ)):
            decomposed = decompose_toffoli(circ)
        with tr.span("architecture", "route_linear", gates=len(decomposed)) as c:
            routed, _ = route_linear(decomposed)
            c["routed"] = len(routed)
        with tr.span("architecture", "check_conformance", gates=len(routed)):
            conforms_ntc = check_conformance(routed, NTC).conforms
        with tr.span("circuit", "dumps") as c:
            routed_text = routed.dumps()
            c["bytes"] = len(routed_text)
        with tr.span("scheduler", "metrics_ntc", gates=len(routed)):
            m_ntc = metrics(routed)
        return {
            "circuit": circ,
            "routed": routed,
            "text": text,
            "routed_text": routed_text,
            "verdict": verdict,
            "conforms": conforms_ac and conforms_ntc,
            "ac": asdict(m_ac),
            "ntc": asdict(m_ntc),
            "swaps": len(routed) - len(decomposed),
        }

    def _compare_replay(self, case, record, found) -> list[str]:
        problems = []
        built, routed = self._paths(case)
        if found["verdict"] is not None:
            problems.append(f"verdict: library check found {found['verdict']}")
        if not found["conforms"]:
            problems.append("library lowering does not conform")
        if built.read_text() != found["text"]:
            problems.append("build wrote other JSON than Circuit.dumps")
        if routed.read_text() != found["routed_text"]:
            problems.append("estimate --emit-routed wrote other JSON than the library lowering")
        for arch in ("ac", "ntc"):
            if record[f"{arch}_metrics"] != found[arch]:
                problems.append(f"estimate --arch {arch} printed {record[f'{arch}_metrics']}, library gives {found[arch]}")
        circ, lowered = found["circuit"], found["routed"]
        if found["ac"]["depth"] != longest_path_depth(circ.gates, circ.width):
            problems.append("AC depth is not the longest path")
        if found["ntc"]["depth"] != longest_path_depth(lowered.gates, lowered.width):
            problems.append("NTC depth is not the longest path")
        problems += spot_check_modexp(circ, case, pow)
        return problems


WORKLOADS = {w.name: w for w in (VerifyModexp, VerifyAdders, LowerNtc, CliRoundtrip)}
