"""Golden bytes: the serialized form of a fixed set of built and routed
circuits, pinned by sha256.

The hashes were recorded from the list-of-``Gate`` representation that
preceded the array-backed one, with ``dumps`` written by
``json.dumps(to_dict(), indent=2)``.  They prove that the builders, the
NTC lowering (decomposition, routing and its final layout) and the
serializer still emit the same bytes.

``BUILT_ONLY`` pins the built bytes of the other builders that go through
the modular adder: constant modadd and modmul, modexp with the VBE and
conditional-sum adders.  Those hashes were
recorded from builders that emitted every adder pass gate by gate, before
each lane recorded its passes once and replayed them.  The two-lane
pipeline's other adders and its other result-block positions (n=5 and
n=6) were pinned later, so a rewrite of the pipeline builder has to keep
every shape of it.  The conditional-sum adder at widths 1, 3, 6 and 7
(plain and controlled) was pinned later still, so that a rewrite of its
tree numbering has to keep the uneven splits.

The ``-cli-`` entries pin what the command line prints for ``build`` →
``estimate --arch ac`` → ``estimate --arch ntc --emit-routed`` on the two
n=4 modexp circuits.  The files it writes must carry the same bytes as
the library pins above.
"""

import hashlib
import json

import pytest

from shorcost import (
    AdderKind,
    ModexpSpec,
    build_adder,
    build_const_modadd,
    build_controlled_adder,
    build_modexp,
    build_modmul_const,
    decompose_toffoli,
    route_linear,
)
from shorcost.cli import run

GOLDEN = {
    "adder-vbe-4": "aa5bd4ce86c15327620e7f16e9e0029c355750a4deda97ccf9a142fb94ce16dd",
    "adder-vbe-4-ntc": "00e090ed40e4b86c87cbab4082b7b15907c274ea8da7b45932eb2d93759ca19d",
    "adder-vbe-4-layout": "84aa190f191e84cd1836167b375389b0f836ad678c8fcb27913f3402f5a30f1b",
    "ctrl-adder-vbe-4": "0c826c21313466a61bc5e5b941b2edd598030b0a9c640336c5b42853cd703036",
    "ctrl-adder-vbe-4-ntc": "7fef8086bb2d2e5d4ea836e4823e1bc85281901ffa0c88e024d34021881acba2",
    "ctrl-adder-vbe-4-layout": "bc41abd3531329bb2f0473a693662eafa4c711620b47cec259e346551bcc240f",
    "adder-cdkm-4": "99aa87307accc7f115e41c1f9766bbe677bd5fae344cef4e4b2a25c899999770",
    "adder-cdkm-4-ntc": "a4f6a1d35fedaee041c71b35a90717cfdba75364d13c100dcefe3ceb96da47cc",
    "adder-cdkm-4-layout": "ac6fd65e09cf83d7b65a3876a7fb6851be8adbbb67ec21f43a907495a250ea6e",
    "ctrl-adder-cdkm-4": "2c3bde1a2b37e73b04c45e1de8ca4dc03ee2e659437d43609279ca5634620072",
    "ctrl-adder-cdkm-4-ntc": "f4773d866a5ce184925b054c93e08f247bc177e25cbeb8ba96950b4da7b7e8d1",
    "ctrl-adder-cdkm-4-layout": "ccdbe965c2eb827ab1ec2cee6d7ae70c37c061902ea2b4af80ff233fc786e1ee",
    "adder-condsum-4": "f3c9cb1d30dd8df5bff3ed85526761df6956a83eb3ed178b2da03c22a271073c",
    "adder-condsum-4-ntc": "c94126265be9e6e6aca8b4f50737f7e4f8982e6e6f75d7db407766d549f7618f",
    "adder-condsum-4-layout": "abbbb4ab42649dc041e3802b5cf562e9d55360f8f2788252ec83525d56615af2",
    "ctrl-adder-condsum-4": "5b3e74a5c35de9c02aa05c92ad698b601330d0cc1fc7ae3e106fa67a11ac2313",
    "ctrl-adder-condsum-4-ntc": "954917bda0b33a6699d0f7634dbe771dee55386c2ef6091fdecff80057574855",
    "ctrl-adder-condsum-4-layout": "fff1538a2f915009407f62f1ec4904f0bd7e36ef1c9eb92d7530ae258f7f90fd",
    "modexp-4-13-2-s1": "630ca4f9a06555df3b0e8172118593d01bb885f31357adff846a213d5a87ad9a",
    "modexp-4-13-2-s1-ntc": "da5d25b1dfcaaa9d7f9d13d619a291ff910b4d841a72daef94dc827bc4c66ade",
    "modexp-4-13-2-s1-layout": "59bede715dadc5ae6920cf879b8bfba046e8cdec5cd9a8e5ca43753b2530072c",
    "modexp-4-13-2-s2": "5cfdcc3530a8389ff21daaf464cbc89dc7dcec5be63bdbfdf2db949a96660996",
    "modexp-4-13-2-s2-ntc": "2a4164df5e18c074510ca7bc26bbf51c82d5b84fb3dfb8af30e5ad023c10c59d",
    "modexp-4-13-2-s2-layout": "aa8c5e68ff8e1912885f01b5b8b753e3cf0d9e20a9bc6c837a3bc8327a3f5513",
    "const-modadd-4-5-13-c0": "9245a6c3a80ebe393518cfa80cb9cfe7153a773b6e69b1e3ea5b180ebd41c64a",
    "const-modadd-4-5-13-c1": "2f005b6a3ae15d1b8e82cda05bc2cc7db8075d0a958b0c45a9b703bf38805d14",
    "const-modadd-4-5-13-c2": "35e6bcbb42c6e4656b6b6095fd1753fcbb251916f7a4c740de37690794665f71",
    "modmul-4-5-13-c0": "6d652cacb9c91d0edbc9e1ef8e0576be5a7f89b0b4e053bf66a5862a3704d9f7",
    "modmul-4-5-13-c1": "5835beea454eec15359b582f222c775792a753ddb12d8e49883ab099578dfed9",
    "modexp-4-13-2-s1-vbe": "0041a21ea336d2408774aa242cb01777738df346a0ff1e12ad115a9d5baec781",
    "modexp-4-13-2-s1-condsum": "3dd66daa47e80706d3ccb3af0b2d45ce794e05e5afd25bc6ad8ec13b38c8914c",
    "modexp-5-29-2-s2": "9103f9fe95a1a508fe833d77481d1ff4a04eec1bcfd0ee38ee6dfa577acce4eb",
    "modexp-6-53-2-s2": "a43efe1b811520a865e93feae3ec8af28f1fd7e8e25cc798636c4df26b593a69",
    "modexp-4-13-2-s2-vbe": "64c297924b14ae8d915701c0eb08cd8a07281db0a3c1850bb7ae7b20397956dd",
    "modexp-4-13-2-s2-condsum": "a42737318943224ef33ad976288b2b91a29964ed1bac6e406207db58b9238976",
    "adder-condsum-1": "28c641b710be305ecf96b54bb029e80eb86f7b618483cd24314c030ff672a73e",
    "ctrl-adder-condsum-1": "d2c940ae7c7d974d7a5f963bc0aec50172134a37194d918d936ef4aaf4426c49",
    "adder-condsum-3": "a9f997164c02f584450e7f6f5e768cf620179d38a41323eca071205841344615",
    "ctrl-adder-condsum-3": "4c65a6d6f822a09de3f80c1f44051f8faf91ca5715132f38ee3ca2adc57ab2e8",
    "adder-condsum-6": "355eeaae03af5a51319946337b5dfcd08bc7d446baa447b975d23895836c508c",
    "ctrl-adder-condsum-6": "9eeec03c73dc54531d2eaae8d3131148d99a4261bbdd3475c858b284262eb15e",
    "adder-condsum-7": "ae65edda2753b2567d1efddb0fc54dc4ce8e91ecc1351b8dd063c952fe0a0996",
    "ctrl-adder-condsum-7": "3578fe8223ab5294b23e2efda4a70697c9f539f25089111c5cc5ceb379507f44",
    "modexp-4-13-2-s1-cli-ac": "296d926848f92fef84dc37c33993fe1c2ffdf210735e32f85d0654a6a6b7371c",
    "modexp-4-13-2-s1-cli-ntc": "fb6af1c5b36fa1774aaed3146521f5abfc3ebb7decbe2b808173df65a0b7bf93",
    "modexp-4-13-2-s2-cli-ac": "61799dc24755876ae9e6edb71c61c1ef3c8e54d092e98a08482ea3d414d62ea2",
    "modexp-4-13-2-s2-cli-ntc": "25a0204e34c9f216016f210f3ad37d727383dfd3840ddc44bca5723b8f151be3",
}

BUILT_ONLY = {
    **{
        f"const-modadd-4-5-13-c{ctl}": (build_const_modadd, 4, 5, 13, ctl)
        for ctl in (0, 1, 2)
    },
    **{f"modmul-4-5-13-c{ctl}": (build_modmul_const, 4, 5, 13, ctl) for ctl in (0, 1)},
    **{
        f"modexp-4-13-2-s{s}-{k.value}": (
            build_modexp, ModexpSpec(n=4, modulus=13, base=2, s=s, adder=k)
        )
        for s in (1, 2)
        for k in (AdderKind.VBE_RIPPLE, AdderKind.CONDITIONAL_SUM)
    },
    # the pipeline's result block is the one at index (2n) % 3: 1 at n=5,
    # 0 at n=6 (and 2 at n=4, pinned in BUILDS)
    "modexp-5-29-2-s2": (build_modexp, ModexpSpec(n=5, modulus=29, base=2, s=2)),
    "modexp-6-53-2-s2": (build_modexp, ModexpSpec(n=6, modulus=53, base=2, s=2)),
    # the conditional-sum tree at a width with no block carry (1) and at
    # widths that split unevenly (3, 6, 7); 4 is pinned in BUILDS
    **{
        f"{prefix}-condsum-{n}": (build, AdderKind.CONDITIONAL_SUM, n)
        for prefix, build in (("adder", build_adder), ("ctrl-adder", build_controlled_adder))
        for n in (1, 3, 6, 7)
    },
}

BUILDS = {
    **{f"adder-{k.value}-4": (build_adder, k, 4) for k in AdderKind},
    **{f"ctrl-adder-{k.value}-4": (build_controlled_adder, k, 4) for k in AdderKind},
    **{
        f"modexp-4-13-2-s{s}": (build_modexp, ModexpSpec(n=4, modulus=13, base=2, s=s))
        for s in (1, 2)
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_built_and_routed_bytes_are_pinned(name):
    build, *args = BUILDS[name]
    circuit = build(*args)
    routed, layout = route_linear(decompose_toffoli(circuit))
    assert _sha256(circuit.dumps()) == GOLDEN[name]
    assert _sha256(routed.dumps()) == GOLDEN[f"{name}-ntc"]
    assert _sha256(json.dumps(list(layout))) == GOLDEN[f"{name}-layout"]


@pytest.mark.parametrize("name", sorted(BUILT_ONLY))
def test_built_bytes_are_pinned(name):
    build, *args = BUILT_ONLY[name]
    assert _sha256(build(*args).dumps()) == GOLDEN[name]


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("adder", list(AdderKind))
def test_builds_repeat_exactly(adder, s):
    spec = ModexpSpec(n=4, modulus=13, base=2, s=s, adder=adder)
    first = build_modexp(spec)
    assert build_modexp(spec) == first
    build_modexp(ModexpSpec(n=4, modulus=11, base=2, s=s, adder=adder))
    build_modmul_const(4, 5, 11, controlled=1, adder=adder)
    assert build_modexp(spec) == first


@pytest.mark.parametrize("s", [1, 2])
def test_cli_bytes_are_pinned(s, tmp_path, capsys):
    name = f"modexp-4-13-2-s{s}"
    built, routed = tmp_path / "built.json", tmp_path / "routed.json"
    steps = {
        "build": ["build", "--kind", "modexp", "--n", "4", "--modulus", "13",
                  "--base", "2", "--mult", str(s), "--out", str(built)],
        "cli-ac": ["estimate", "--circuit", str(built), "--arch", "ac"],
        "cli-ntc": ["estimate", "--circuit", str(built), "--arch", "ntc",
                    "--emit-routed", str(routed)],
    }
    printed = {}
    for label, argv in steps.items():
        assert run(argv) == 0
        printed[label] = capsys.readouterr().out
    assert printed.pop("build") == ""
    for label, text in printed.items():
        assert _sha256(text) == GOLDEN[f"{name}-{label}"]
    assert _sha256(built.read_text()) == GOLDEN[name]
    assert _sha256(routed.read_text()) == GOLDEN[f"{name}-ntc"]
    # the same document in compact JSON, which ``loads`` reads through
    # ``from_dict``, gives the same output bytes
    built.write_text(json.dumps(json.loads(built.read_text())))
    routed.unlink()
    for label in ("cli-ac", "cli-ntc"):
        assert run(steps[label]) == 0
        assert _sha256(capsys.readouterr().out) == GOLDEN[f"{name}-{label}"]
    assert _sha256(routed.read_text()) == GOLDEN[f"{name}-ntc"]
