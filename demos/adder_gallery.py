"""Side-by-side look at the three adder constructions.

Builds each adder across a range of widths, prints the resource table,
and exhaustively verifies the n=3 instances so the numbers belong to
circuits that are actually correct.
"""

from shorcost import AdderKind, build_adder, contract, exhaustive_check, metrics

KINDS = (AdderKind.VBE_RIPPLE, AdderKind.CDKM_RIPPLE, AdderKind.CONDITIONAL_SUM)


def main() -> None:
    print("exhaustive check at n=3 (all 128 inputs):")
    for kind in KINDS:
        circ = build_adder(kind, 3)
        domain, fn = contract("adder", circ)
        cx = exhaustive_check(circ, fn, domain)
        print(f"  {kind.value:>8}: {'ok' if cx is None else cx}")
    print()

    print(f"{'n':>4} {'kind':>8} {'width':>6} {'gates':>7} {'depth':>6} {'conc':>6}")
    for n in (4, 8, 16, 32, 64):
        for kind in KINDS:
            m = metrics(build_adder(kind, n))
            print(f"{n:>4} {kind.value:>8} {m.width:>6} {m.total_gates:>7}"
                  f" {m.depth:>6} {m.max_concurrency:>6}")
        print()

    print("the ripple adders double their depth with n; the conditional-sum")
    print("adder adds a constant amount per doubling and pays for it in width.")


if __name__ == "__main__":
    main()
