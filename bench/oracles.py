"""Output checks, independent of dlash.

Every check takes an operation (see workloads.py), the outcome the
harness recorded for it and the run's Adem oracle, and returns None
when the output is right or a one-line reason when it is not.  Checks
run after the timed region.

- Adem rewriting is redone here with big-integer binomials
  (``math.comb``), rewriting the rightmost non-admissible pair first.
  The admissible normal form is unique, so any order must agree with
  the program's.
- Conjugates come from the recursion zbar_n = sum_i z_i zbar_{n-i}^{2^i}
  computed in sympy over GF(2).
- ``Q(t) z_n`` and ``q_op`` results are checked against properties the
  method must have: instability, the squaring rule, the successor and
  Steinberger formulas, and homogeneity.

Polynomials in the dual Steenrod algebra are sets of monomials; a
monomial is a sorted tuple of (generator index, exponent) pairs.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import comb

from workloads import monomial_degree

# -- Adem rewriting ----------------------------------------------------


def adem_rhs(i: int, j: int) -> frozenset:
    """Q^i Q^j = sum of Q^{i+j-l} Q^l over l with C(l-j-1, 2l-i) odd (i > 2j)."""
    return frozenset(
        (i + j - l, l)
        for l in range((i + 1) // 2, i + j + 1)
        if comb(l - j - 1, 2 * l - i) & 1
    )


def is_admissible(word: tuple) -> bool:
    return all(a <= 2 * b for a, b in zip(word, word[1:]))


def is_unstable(word: tuple, degree: int) -> bool:
    """Some operation Q^i meets a class of degree above i."""
    for i in reversed(word):
        if i < degree:
            return True
        degree += i
    return False


class AdemOracle:
    """Admissible normal form by rewriting the rightmost bad pair first."""

    def __init__(self):
        self.memo: dict = {}

    def reduce(self, word: tuple, degree: int) -> frozenset:
        key = (word, degree)
        if key in self.memo:
            return self.memo[key]
        if is_unstable(word, degree):
            result = frozenset()
        else:
            pos = next(
                (p for p in range(len(word) - 2, -1, -1) if word[p] > 2 * word[p + 1]),
                None,
            )
            if pos is None:
                result = frozenset({word})
            else:
                acc: set = set()
                for a, b in adem_rhs(word[pos], word[pos + 1]):
                    acc ^= self.reduce(word[:pos] + (a, b) + word[pos + 2:], degree)
                result = frozenset(acc)
        self.memo[key] = result
        return result

    def reduce_sum(self, words, degree: int) -> frozenset:
        acc: set = set()
        for w in words:
            acc ^= self.reduce(w, degree)
        return frozenset(acc)


_DL_TERM = re.compile(r"^((?:Q\^\d+ )*)([A-Za-z_]\w*)\[(\d+)\]$")


def parse_dl_sum(text: str):
    """'Q^5 Q^3 x[2] + Q^6 Q^2 x[2]' -> ({(5, 3), (6, 2)}, 'x', 2); '0' -> empty."""
    text = text.strip()
    if text == "0":
        return frozenset(), None, None
    words = []
    classes = set()
    for term in text.split(" + "):
        m = _DL_TERM.match(term.strip())
        if m is None:
            raise ValueError(f"not a Dyer-Lashof term: {term!r}")
        words.append(tuple(int(q[2:]) for q in m.group(1).split()))
        classes.add((m.group(2), int(m.group(3))))
    if len(classes) != 1 or len(set(words)) != len(words):
        raise ValueError(f"malformed sum: {text!r}")
    (name, degree), = classes
    return frozenset(words), name, degree


# -- the dual Steenrod algebra -----------------------------------------


def parse_poly(text: str) -> frozenset:
    """'z1^3 + z2' -> {((1, 3),), ((2, 1),)}; '0' -> empty set; '1' -> {()}."""
    text = text.strip()
    if text == "0":
        return frozenset()
    monos = []
    for term in text.split(" + "):
        term = term.strip()
        if term == "1":
            monos.append(())
            continue
        exps = {}
        for factor in term.split():
            m = re.fullmatch(r"z(\d+)(?:\^(\d+))?", factor)
            if m is None:
                raise ValueError(f"not a Milnor monomial: {term!r}")
            g, e = int(m.group(1)), int(m.group(2) or 1)
            if g in exps or e < 1:
                raise ValueError(f"malformed monomial: {term!r}")
            exps[g] = e
        monos.append(tuple(sorted(exps.items())))
    if len(set(monos)) != len(monos):
        raise ValueError(f"repeated monomial in {text!r}")
    return frozenset(monos)


def mono_degree(mono: tuple) -> int:
    return sum((2**g - 1) * e for g, e in mono)


def poly_mul(a: frozenset, b: frozenset) -> frozenset:
    acc: set = set()
    for x in a:
        for y in b:
            exps = dict(x)
            for g, e in y:
                exps[g] = exps.get(g, 0) + e
            acc ^= {tuple(sorted(exps.items()))}
    return frozenset(acc)


def zeta(g: int, e: int = 1) -> frozenset:
    return frozenset({((g, e),)})


def square(p: frozenset) -> frozenset:
    return frozenset(tuple((g, 2 * e) for g, e in m) for m in p)


@lru_cache(maxsize=None)
def conjugates(max_i: int) -> tuple:
    """(zbar_1, ..., zbar_max_i) from zbar_n = sum_{i=1..n} z_i zbar_{n-i}^{2^i},
    computed in sympy over GF(2)."""
    import sympy

    zs = sympy.symbols(f"z1:{max_i + 1}")
    zbar = [sympy.Poly(1, *zs, modulus=2)]
    for n in range(1, max_i + 1):
        acc = sympy.Poly(0, *zs, modulus=2)
        for i in range(1, n + 1):
            acc = acc + sympy.Poly(zs[i - 1], *zs, modulus=2) * zbar[n - i] ** (2**i)
        zbar.append(acc)
    out = []
    for p in zbar[1:]:
        monos = set()
        for exps, coeff in p.terms():
            if int(coeff) % 2:
                monos.add(tuple((g + 1, e) for g, e in enumerate(exps) if e))
        out.append(frozenset(monos))
    return tuple(out)


def q_op_expected(i: int, exps: dict):
    """The value a property fixes for Q^i m, or None if none applies."""
    m = tuple(sorted(exps.items()))
    d = mono_degree(m)
    if i < d:
        return frozenset()  # instability
    if i == d:
        return square(frozenset({m}))  # Q^{|m|} m = m^2
    if len(m) == 1 and m[0][1] == 1:
        g = m[0][0]
        if i == 2**g:
            # Q^{2^g} z_g = z_{g+1} + z_g^2 z_1
            return frozenset({((g + 1, 1),)}) ^ poly_mul(zeta(g, 2), zeta(1))
        if g == 1 and (i + 2) & (i + 1) == 0:
            k = (i + 2).bit_length() - 1
            return conjugates(k)[k - 1]  # Q^{2^k - 2} z_1 = zbar_k
    return None


def check_homogeneous(poly: frozenset, degree: int):
    bad = [m for m in poly if mono_degree(m) != degree]
    if bad:
        return f"monomial {bad[0]} has degree {mono_degree(bad[0])}, not {degree}"
    return None


# -- checks per operation ----------------------------------------------


def _outcome_error(res: dict):
    if res.get("traceback"):
        return f"raised {res['traceback']}"
    if res["code"] != 0:
        return f"exit status {res['code']}: {res['stderr'].strip()[:200]}"
    return None


def check_reduce(op, res, adem):
    words, _, degree = parse_dl_sum(res["stdout"])
    if degree is not None and degree != op["degree"]:
        return f"class degree {degree}, input had {op['degree']}"
    total = op["degree"] + sum(op["word"])
    for w in words:
        if not is_admissible(w):
            return f"{w} is not admissible"
        if is_unstable(w, op["degree"]):
            return f"{w} is an instability zero"
        if op["degree"] + sum(w) != total:
            return f"{w} has degree {op['degree'] + sum(w)}, input has {total}"
    want = adem.reduce(op["word"], op["degree"])
    if words != want:
        return f"normal form {sorted(words)} differs from {sorted(want)}"
    return None


def check_adem(op, res, adem):
    i, j = op["pair"]
    out = res["stdout"].strip()
    if i <= 2 * j:
        ok = out == f"Q^{i} Q^{j} is already admissible"
        return None if ok else f"admissible pair answered {out!r}"
    lhs = f"Q^{i} Q^{j} = "
    if not out.startswith(lhs):
        return f"unexpected answer {out!r}"
    rhs = out[len(lhs):]
    got = frozenset() if rhs == "0" else frozenset(
        tuple(int(q[2:]) for q in term.split()) for term in rhs.split(" + ")
    )
    want = adem_rhs(i, j)
    return None if got == want else f"relation {sorted(got)} differs from {sorted(want)}"


def check_symmetry(op, res, adem):
    lines = res["stdout"].splitlines()
    b, degree = op["bound"], op["degree"]
    if lines[0] != f"# window e_s >= 0, e_t >= {-b}, total <= {b}":
        return f"header {lines[0]!r}"
    body = lines[1:-1]
    if lines[-1] != f"# {len(body)} distinct relations" or not body:
        return f"footer {lines[-1]!r} for {len(body)} relations"
    for line in body:
        words, name, d = parse_dl_sum(line)
        if (name, d) != ("x", degree) or any(len(w) != 2 for w in words):
            return f"relation {line!r} is not over x[{degree}] in length 2"
        if adem.reduce_sum(words, degree):
            return f"relation {line!r} does not reduce to zero"
    return None


def check_q_op(op, res, adem):
    i, exps = op["args"]
    got = parse_poly(res["stdout"])
    bad = check_homogeneous(got, monomial_degree(exps) + i)
    if bad:
        return bad
    want = q_op_expected(i, exps)
    if want is not None and got != want:
        return f"Q^{i} {exps} = {res['stdout'].strip()[:80]}, expected another value"
    return None


def check_zeta_action(op, res, adem):
    payload = json.loads(res["stdout"])
    n, b = op["n"], op["bound"]
    w = payload["series"]["window"]
    if w["max_total"] != b or payload["n"] != n:
        return f"window {w} for bound {b}"
    d = 2**n - 1
    coeffs = {}
    for term in payload["series"]["terms"]:
        if term["es"] != 0:
            return f"term in s^{term['es']}"
        coeffs[term["et"]] = parse_poly(term["coeff"])
    for et, poly in coeffs.items():
        if et < d:
            return f"t^{et} below the instability line is {poly}"
        bad = check_homogeneous(poly, d + et)
        if bad:
            return f"t^{et}: {bad}"
    if d <= b and coeffs.get(d) != square(zeta(n)):
        return f"Q^{d} z{n} is not z{n}^2"
    if 2**n <= b and coeffs.get(2**n) != frozenset({((n + 1, 1),)}) ^ poly_mul(zeta(n, 2), zeta(1)):
        return f"Q^{2**n} z{n} is not z{n + 1} + z{n}^2 z1"
    if n == 1:
        k = 2
        while 2**k - 2 <= b:
            if coeffs.get(2**k - 2, frozenset()) != conjugates(k)[k - 1]:
                return f"Q^{2**k - 2} z1 is not zbar{k}"
            k += 1
    return None


def check_conjugate(op, res, adem):
    lines = res["stdout"].splitlines()
    want = conjugates(op["max_i"])
    if len(lines) != len(want):
        return f"{len(lines)} conjugates for max_i {op['max_i']}"
    for k, (line, zbar) in enumerate(zip(lines, want), start=1):
        prefix = f"zbar{k} = "
        if not line.startswith(prefix) or parse_poly(line[len(prefix):]) != zbar:
            return f"zbar{k} differs from the recursion"
    return None


def check_report(op, res, adem):
    lines = res["stdout"].splitlines()
    if not lines or lines[-1] != "passed" or len(lines) < 2:
        return f"report ends {lines[-1:]!r}"
    bad = [l for l in lines[:-1] if not l.startswith("ok    ")]
    return f"failed check {bad[0]!r}" if bad else None


def check_verify_all(op, res, adem):
    lines = res["stdout"].splitlines()
    if not lines or lines[-1] != "all suites passed" or len(lines) != 10:
        return f"verify-all ends {lines[-1:]!r} after {len(lines)} lines"
    bad = [l for l in lines[:-1] if not l.startswith("PASS  ")]
    return f"failed suite {bad[0]!r}" if bad else None


CHECKS = {
    "reduce": check_reduce,
    "adem": check_adem,
    "symmetry": check_symmetry,
    "q_op": check_q_op,
    "zeta_action": check_zeta_action,
    "conjugate": check_conjugate,
    "report": check_report,
    "verify_all": check_verify_all,
}


def refused_cleanly(res: dict) -> bool:
    """A malformed request is answered as the README promises: a one-line
    error on stderr, exit status 1 or 2, nothing on stdout, no traceback."""
    err = [l for l in res["stderr"].splitlines() if l.strip()]
    return (
        not res.get("traceback")
        and res["code"] in (1, 2)
        and not res["stdout"].strip()
        and sum(1 for l in err if l.lower().startswith("error")) == 1
    )


def check(op, res, adem: AdemOracle) -> tuple:
    """(failed, problem): failed counts the operation as failed; problem is
    a reason the output is wrong, or None.  One oracle serves a whole run,
    so its memo is shared."""
    if op.get("malformed"):
        return (not refused_cleanly(res), None)
    err = _outcome_error(res)
    if err:
        return (True, err)
    try:
        return (False, CHECKS[op["check"]](op, res, adem))
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return (False, f"unreadable output: {type(e).__name__}: {e}")
