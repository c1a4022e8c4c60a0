"""Inputs of the three workloads; the same seed gives the same inputs.

A workload is a list of operations, one round.  Every round of a run
repeats the same list, so the share of failed operations is the same in
every run whatever its length.  Each operation is a dict:

    kind   "cli" (argv for the click group) or "q_op" (a library call)
    args   the argv list, or (i, exponents) with exponents {index: power}
    check  what the output is checked against (see oracles.py)
    label  a short stable name, used in traces and error messages

The slowest operations of a round come from fixed random streams and
are the same for every seed; the others are drawn from the seed,
stratified (a fixed number of inputs per length, degree or offset), so
that the total work of a round and its 90th percentile change little
from seed to seed.  Nothing here imports dlash.
"""

from __future__ import annotations

import random

WORKLOADS = ("rewrite", "milnor", "verify")

# deg z_i = 2^i - 1
ZETA_DEGREE = {i: 2**i - 1 for i in range(1, 6)}


def _cli(args, check, label, **extra):
    return {"kind": "cli", "args": [str(a) for a in args], "check": check,
            "label": label, **extra}


def _malformed(args, label):
    # a request the program must refuse with a one-line error
    return _cli(args, "error", label, malformed=True)


# -- rewrite -----------------------------------------------------------

# degree budget per word length: bounds the rewriting work of one word
REWRITE_BUDGET = {2: 96, 3: 160, 4: 224, 5: 288, 6: 320, 7: 384}
REWRITE_WORDS_PER_LENGTH = 6
# longer words, the same for every seed: they carry most of the rewriting
# work, and their cost does not depend on the luck of a seed's draw
REWRITE_FIXED_WORDS = 24
REWRITE_FIXED_BUDGET = 1024
SYMMETRY_BOUNDS = (18, 24)


def stable_word(rng: random.Random, length: int, degree: int, budget: int) -> tuple:
    """A word Q^{i1}..Q^{ik} on a class of the given degree that survives
    instability: each index is at least the degree it is applied to, and
    at most about twice it, so that adjacent pairs are often
    non-admissible.  The total degree stays near the budget."""
    cur = degree
    word = []
    for k in range(length):
        rest = length - 1 - k
        hi = max(cur, min(2 * cur + 2, budget // 2**rest - cur))
        i = rng.randint(cur, hi)
        word.append(i)
        cur += i
    return tuple(reversed(word))


def word_text(word: tuple, degree: int) -> str:
    return " ".join(f"Q^{i}" for i in word) + f" x[{degree}]"


def rewrite_ops(seed: int) -> list:
    rng = random.Random(f"rewrite/{seed}")
    ops = []
    for length in sorted(REWRITE_BUDGET):
        for k in range(REWRITE_WORDS_PER_LENGTH):
            # the first word of each length is an instability zero on
            # purpose: its lowest operation sits below the class degree
            degree = rng.randint(1 if k == 0 else 0, 4)
            word = stable_word(rng, length, degree, REWRITE_BUDGET[length])
            if k == 0:
                word = word[:-1] + (rng.randint(0, degree - 1),)
            ops.append(_cli(["reduce", word_text(word, degree)], "reduce",
                            f"reduce/L{length}", word=word, degree=degree))
    fixed = random.Random("rewrite/fixed")
    for k in range(REWRITE_FIXED_WORDS):
        length = 6 + k % 2
        degree = fixed.randint(0, 4)
        word = stable_word(fixed, length, degree, REWRITE_FIXED_BUDGET)
        ops.append(_cli(["reduce", word_text(word, degree)], "reduce",
                        f"reduce/fixed-L{length}", word=word, degree=degree))
    for k in range(8):
        # non-admissible pairs with l ranges of growing length
        j = rng.randint(0, 48)
        i = 2 * j + 1 + 200 * k + rng.randint(0, 100)
        ops.append(_cli(["adem", i, j], "adem", "adem", pair=(i, j)))
    j = rng.randint(1, 48)
    i = rng.randint(j, 2 * j)
    ops.append(_cli(["adem", i, j], "adem", "adem/admissible", pair=(i, j)))
    for degree in range(0, 5):
        for bound in SYMMETRY_BOUNDS:
            ops.append(_cli(["symmetry", degree, bound], "symmetry", "symmetry",
                            degree=degree, bound=bound))
    ops.append(_malformed(["adem", "--", "3", "-1"], "adem/negative"))
    return ops


# -- milnor ------------------------------------------------------------

# q_op calls: every degree with each offset i - |m| (the squaring rule
# at 0, homogeneity checks above it, an instability zero below it)
Q_OP_DEGREES = (8, 12, 16, 20, 24, 28, 32)
Q_OP_OFFSETS = (0, 1, 4)
Q_OP_ZERO_DEGREES = (8, 16, 24, 32)
# q_op calls on monomials the same for every seed, at the top degrees:
# the slowest calls of a round, so op_p90_ref does not hang on one draw
Q_OP_FIXED_DEGREES = (40, 42, 44, 46, 48, 48, 46, 44, 42, 40)
ZETA_ACTION_BOUNDS = (24, 40)


def milnor_monomial(rng: random.Random, degree: int) -> dict:
    """Exponents {i: e} of a monomial of the given degree in z1..z5, on
    two generators below degree 16 and three from 16 on."""
    support = 2 if degree < 16 else 3
    while True:
        gens = sorted(rng.sample(sorted(ZETA_DEGREE), support))
        rest = degree - sum(ZETA_DEGREE[g] for g in gens)
        if rest < 0:
            continue
        exps = dict.fromkeys(gens, 1)
        for g in reversed(gens):
            k = rng.randint(0, rest // ZETA_DEGREE[g])
            exps[g] += k
            rest -= k * ZETA_DEGREE[g]
        if rest == 0:
            return exps


def monomial_degree(exps: dict) -> int:
    return sum(ZETA_DEGREE[g] * e for g, e in exps.items())


def milnor_ops(seed: int) -> list:
    rng = random.Random(f"milnor/{seed}")
    ops = []
    slots = [(d, off) for d in Q_OP_DEGREES for off in Q_OP_OFFSETS]
    slots += [(d, -3) for d in Q_OP_ZERO_DEGREES]
    for degree, offset in slots:
        exps = milnor_monomial(rng, degree)
        ops.append({"kind": "q_op", "args": (degree + offset, exps), "check": "q_op",
                    "label": f"q_op/deg{degree}"})
    fixed = random.Random("milnor/fixed")
    for degree in Q_OP_FIXED_DEGREES:
        exps = milnor_monomial(fixed, degree)
        ops.append({"kind": "q_op", "args": (degree + 1, exps), "check": "q_op",
                    "label": f"q_op/fixed-deg{degree}"})
    for k in range(1, 5):
        # Q^{2^k} z_k = z_{k+1} + z_k^2 z_1
        ops.append({"kind": "q_op", "args": (2**k, {k: 1}), "check": "q_op",
                    "label": "q_op/successor"})
    for k in range(2, 6):
        # Q^{2^k - 2} z_1 = zbar_k
        ops.append({"kind": "q_op", "args": (2**k - 2, {1: 1}), "check": "q_op",
                    "label": "q_op/steinberger"})
    for n in range(1, 5):
        for bound in ZETA_ACTION_BOUNDS:
            ops.append(_cli(["--json", "--degree-bound", bound, "zeta-action", n],
                            "zeta_action", "zeta-action", n=n, bound=bound))
    for k in range(1, 7):
        ops.append(_cli(["conjugate", k], "conjugate", f"conjugate/{k}", max_i=k))
    ops.append(_malformed(["conjugate", "0"], "conjugate/zero"))
    return ops


# -- verify ------------------------------------------------------------

NISHIDA_BOUNDS = tuple(range(4, 20))
# index -> calls per round
STEINBERGER_CALLS = {2: 10, 3: 8, 4: 4}


def verify_ops(seed: int) -> list:
    # the paper's identities at fixed sizes; the seed only sets the order
    ops = [_cli(["--degree-bound", 16, "verify-all"], "verify_all", "verify-all")]
    for bound in NISHIDA_BOUNDS:
        ops.append(_cli(["--degree-bound", bound, "nishida"], "report", "nishida"))
    for i, calls in STEINBERGER_CALLS.items():
        for _ in range(calls):
            ops.append(_cli(["steinberger", i], "report", f"steinberger/{i}"))
    ops.append(_malformed(["steinberger", "1"], "steinberger/one"))
    return ops


BUILDERS = {"rewrite": rewrite_ops, "milnor": milnor_ops, "verify": verify_ops}


def build(workload: str, seed: int) -> list:
    """The operations of one round, in the order they run."""
    ops = BUILDERS[workload](seed)
    random.Random(f"order/{workload}/{seed}").shuffle(ops)
    for n, op in enumerate(ops):
        op["index"] = n
    return ops
