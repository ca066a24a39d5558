"""Invocation lists for the benchmark workloads.

Each workload is a fixed mix of ``sumkit`` command lines.  The seed picks
the parameters inside that mix -- the weight pair, the Euler ``r``, the
sequences and ``n`` -- and never the mix shape: every seed yields the same
commands, in the same order, with the same flags.
"""

from __future__ import annotations

import random

WEIGHT_PRESETS = ("ones", "harmonic", "geometric:1/2", "power:-1")
# geometric:1/2 is excluded where a float run reaches N=1024: 1/(u_k w_k)
# then passes 2^1024 and the kernel divides by an underflowed weight.
DEEP_WEIGHT_PRESETS = ("ones", "harmonic", "power:-1")
EULER_R = ("1/2", "1/3", "2/3")
DUAL_SEQUENCES = ("power:-2", "harmonic", "alternating", "ones", "geometric:1/2",
                  "power:-1", "e3")
VALUE_SEQUENCES = ("harmonic", "power:-2", "ones", "alternating", "geometric:1/2",
                   "e3", "1,2,3")
DEEP_SCHEDULE = "128,256,512,1024"
# Float class-checks out of or into a domain space cost up to three times
# more under one weight pair than another (linf -> int-bv: 1.3 s with
# ones/ones, 4.0 s with geometric), so they keep this pair on every seed.
CLASS_UW = ["--u", "ones", "--w", "harmonic"]

# Exit codes a report may carry: value commands must succeed and the
# consistency checks must match exactly; verdicts may land anywhere.
VALUE_EXITS = (0,)
VERDICT_EXITS = (0, 2, 3)


class _Draw:
    """Seeded parameter draws for one workload instance.

    Weight pairs, Euler ``r`` and sequences are dealt from shuffled decks
    rather than drawn independently, so every seed uses each value about
    equally often and passes of different seeds cost about the same.
    """

    def __init__(self, seed: int, weights=WEIGHT_PRESETS):
        self.rng = random.Random(seed)
        self._pairs = [(u, w) for u in weights for w in weights]
        self._decks: dict = {}

    def _deal(self, key, values):
        deck = self._decks.setdefault(key, [])
        if not deck:
            deck.extend(values)
            self.rng.shuffle(deck)
        return deck.pop()

    def uw(self) -> list[str]:
        u, w = self._deal("uw", self._pairs)
        return ["--u", u, "--w", w]

    def r(self) -> str:
        return self._deal("r", EULER_R)

    def seq(self, pool=VALUE_SEQUENCES) -> str:
        return self._deal(pool, pool)

    def n(self, base: int) -> int:
        """``base`` jittered upward by at most an eighth."""
        return base + self.rng.randrange(base // 8 + 1)


def battery_float(seed: int) -> list[tuple[list[str], tuple[int, ...]]]:
    """Every recipe table 1-6, a composite target and the three dual
    checks, in float mode on the default schedule."""
    d = _Draw(seed)
    cc = ["class-check"]
    inv = [
        # table 1 (C14, C16), (C13)
        cc + ["--table", "1", "--source", "l1", "--target", "c0s", "--matrix", f"euler:{d.r()}"],
        cc + ["--table", "1", "--source", "l1", "--target", "l1", "--matrix", "cesaro"],
        # table 2 (C21, C22), (C23)
        cc + ["--table", "2", "--source", "bs", "--target", "l1", "--matrix", f"euler:{d.r()}"],
        cc + ["--table", "2", "--source", "cs", "--target", "l1", "--matrix", "cesaro"],
        # table 3 (C11, C12) and table 4 (C14, C15), both with the beta prerequisite
        cc + ["--source", "int-bv", "--target", "c", "--matrix", f"euler:{d.r()}"] + CLASS_UW,
        cc + ["--source", "d-bv", "--target", "cs", "--matrix", "cesaro"] + CLASS_UW,
        # table 5 and 6 (C20)
        cc + ["--source", "linf", "--target", "int-bv", "--matrix", "identity"] + CLASS_UW,
        cc + ["--source", "c", "--target", "d-bv", "--matrix", "cesaro"] + CLASS_UW,
        # composite target: generator composed on the target side
        cc + ["--source", "int-bv", "--target", "cesaro", "--matrix", "identity"] + CLASS_UW,
    ]
    for kind in ("alpha", "beta", "gamma"):
        for space in ("int-bv", "d-bv"):
            inv.append(["dual-check", "--space", space, "--kind", kind,
                        "--a", d.seq(DUAL_SEQUENCES)] + d.uw())
    return [(argv, VERDICT_EXITS) for argv in inv]


def exact_values(seed: int) -> list[tuple[list[str], tuple[int, ...]]]:
    """Many short exact-mode value commands, twice over with fresh draws,
    then one exact beta dual-check and one exact l1 class-check."""
    d = _Draw(seed)
    spaces = ("int-bv", "d-bv")
    inv: list[tuple[list[str], tuple[int, ...]]] = []

    def value(argv):
        inv.append((argv, VALUE_EXITS))

    for _ in range(2):
        for i, base in enumerate((64, 128, 256, 512, 1024) * 2):
            value(["transform", "--space", spaces[i % 2], "--x", d.seq(),
                   "--n", str(d.n(base))] + d.uw())
        for base in (64, 128, 256):
            value(["transform", "--matrix", "cesaro", "--x", d.seq(), "--n", str(d.n(base))])
        value(["transform", "--matrix", f"euler:{d.r()}", "--x", d.seq(),
               "--n", str(d.n(128))])
        for i, base in enumerate((64, 128, 256, 512, 1024) * 2):
            value(["inverse", "--space", spaces[i % 2], "--y", d.seq(),
                   "--n", str(d.n(base))] + d.uw())
        for base in (64, 128, 128, 256):
            value(["inverse", "--matrix", "cesaro", "--y", d.seq(), "--n", str(d.n(base))])
        for i, base in enumerate((64, 128, 256, 512, 1024, 64, 256, 1024)):
            value(["norm", "--space", spaces[i % 2], "--x", d.seq(), "--n", str(d.n(base))]
                  + d.uw())
        for i, base in enumerate((64, 64, 128, 128)):
            value(["basis", "--space", spaces[i % 2], "--k", str(1 + d.rng.randrange(8)),
                   "--n", str(d.n(base))] + d.uw())
        for i in range(4):
            value(["pairing-check", "--space", spaces[i % 2], "--a", d.seq(DUAL_SEQUENCES),
                   "--y", d.seq(), "--n", str(d.n(64))] + d.uw())
        for matrix in ("cesaro", f"euler:{d.r()}", "cesaro", "identity"):
            value(["reduction-check", "--matrix", matrix, "--y", d.seq(),
                   "--n", str(d.n(64))] + d.uw())
    # the two schedule-driven checks take a fifth of the pass; fixed inputs
    # keep that fifth the same on every seed
    inv.append((["dual-check", "--mode", "exact", "--space", "int-bv", "--kind", "beta",
                 "--a", "power:-2"] + CLASS_UW, VERDICT_EXITS))
    inv.append((["class-check", "--mode", "exact", "--source", "l1", "--target", "c",
                 "--matrix", "euler:1/2"], VERDICT_EXITS))
    return inv


def deep_float(seed: int) -> list[tuple[list[str], tuple[int, ...]]]:
    """Four checks on the deep schedule 128..1024, where the N^2 entry memo
    sets the working set."""
    d = _Draw(seed, DEEP_WEIGHT_PRESETS)
    sched = ["--schedule", DEEP_SCHEDULE]
    inv = [
        ["class-check", "--source", "l1", "--target", "cs", "--matrix", "cesaro"] + sched,
        ["class-check", "--source", "linf", "--target", "l1", "--matrix", "cesaro"] + sched,
        # riesz:ones would hold 220 MB instead of 370 MB: the weights stay fixed
        ["class-check", "--source", "l1", "--target", "bs", "--matrix", "riesz:harmonic"]
        + sched,
        ["dual-check", "--space", "d-bv", "--kind", "beta", "--a", d.seq(DUAL_SEQUENCES)]
        + d.uw() + sched,
    ]
    return [(argv, VERDICT_EXITS) for argv in inv]


WORKLOADS = {
    "battery-float": battery_float,
    "exact-values": exact_values,
    "deep-float": deep_float,
}
