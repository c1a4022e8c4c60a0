"""Power-operation calculus on graded classes.

A Dyer-Lashof element is a DLSum: an F2 sum of words Q^{i1}...Q^{ik}
applied to one graded class symbol, kept as the set of its words, so
that adding a word twice cancels it.  The module gives instability
(Q^i y = 0 for i < |y|), the Adem relations derived from the residue
formula, rewriting to admissible normal form, and an independent oracle
that re-derives the relations from the symmetry of the two-variable
iterated total operation, read straight from the words that land in each
bidegree.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from .laurent import Window


class AlreadyAdmissibleError(Exception):
    pass


class RewriteLimitError(Exception):
    pass


# largest i + j for which adem_relation lists a right side; past it a
# right side can have more than 10,946 terms (Fibonacci growth in the
# bit length of i - 2j)
ADEM_INDEX_BOUND = 1 << 20


def _unstable(word: tuple, degree: int) -> bool:
    """True if some suffix of word applies Q^i to a class of degree > i."""
    for i in reversed(word):
        if i < degree:
            return True
        degree += i
    return False


class GradedClass(NamedTuple):
    name: str
    degree: int

    def __str__(self) -> str:
        return f"{self.name}[{self.degree}]"


class DLSum:
    """F2-sum of words over a common class; set semantics gives cancellation.

    Each word is a tuple (i1, ..., ik) standing for Q^{i1}...Q^{ik} x."""

    __slots__ = ("klass", "words")

    def __init__(self, klass: GradedClass, words=()):
        _set_klass(self, klass)
        _set_words(self, frozenset(words))

    def __setattr__(self, name, value):
        raise AttributeError("DLSum is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a sum through __init__, past __setattr__
        return DLSum, (self.klass, self.words)

    def is_zero(self) -> bool:
        return not self.words

    def __add__(self, other: "DLSum") -> "DLSum":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.klass != other.klass:
            raise ValueError("sums lie over different classes")
        return DLSum(self.klass, self.words ^ other.words)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DLSum):
            return NotImplemented
        return self.words == other.words and (not self.words or self.klass == other.klass)

    def __hash__(self) -> int:
        return hash(self.words)

    def __str__(self) -> str:
        """The words in sorted order, each as Q^{i1} ... Q^{ik} x[n]; 0 when empty."""
        if not self.words:
            return "0"
        klass = str(self.klass)
        terms = (" ".join([*(f"Q^{i}" for i in w), klass]) for w in sorted(self.words))
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"DLSum({self})"


_set_klass = DLSum.klass.__set__
_set_words = DLSum.words.__set__


class AdemRelation(NamedTuple):
    """Rewriting rule Q^i Q^j -> sum of Q^{i+j-l} Q^l for a non-admissible pair."""

    lhs: tuple
    rhs: frozenset  # set of (a, b) index pairs, each with coefficient 1

    def __str__(self) -> str:
        i, j = self.lhs
        if not self.rhs:
            return f"Q^{i} Q^{j} = 0"
        terms = " + ".join(f"Q^{a} Q^{b}" for a, b in sorted(self.rhs))
        return f"Q^{i} Q^{j} = {terms}"


def _disjoint_splits(n: int) -> list:
    """Every (a, b) with a + 2b = n and a & b = 0, for n >= 0.

    The low bit of a is that of n.  An odd n forces b even; an even n
    leaves b's low bit free, and b odd needs n >= 2.  Every call has the
    solution (n, 0), so no branch is dead: the work is at most the output
    times the bit length of n.
    """
    if n == 0:
        return [(0, 0)]
    h = n >> 1
    if n & 1:
        return [(2 * a + 1, 2 * b) for a, b in _disjoint_splits(h)]
    out = [(2 * a, 2 * b) for a, b in _disjoint_splits(h)]
    out += [(2 * a, 2 * b + 1) for a, b in _disjoint_splits(h - 1)]
    return out


def adem_relation(i: int, j: int) -> AdemRelation:
    """Rewrite of a non-admissible pair via the residue-extracted formula.

    Q^i Q^j is the sum of Q^{i+j-l} Q^l over l with C(l-j-1, 2l-i) odd.
    With a = 2l - i and b = i - l - j - 1 that binomial is C(a+b, a),
    odd exactly when a & b = 0, and a + 2b = i - 2j - 2; so the right
    side is listed from those (a, b), not scanned over l.  Instability
    trims further at application time, not here.  A pair with i + j
    past ADEM_INDEX_BOUND raises RewriteLimitError.
    """
    if i < 0 or j < 0:
        raise ValueError(f"Q^{i} Q^{j}: indices must be >= 0")
    if i <= 2 * j:
        raise AlreadyAdmissibleError(f"Q^{i} Q^{j} is already admissible")
    if i + j > ADEM_INDEX_BOUND:
        raise RewriteLimitError(
            f"Q^{i} Q^{j}: i + j exceeds the Adem index bound {ADEM_INDEX_BOUND}"
        )
    n = i - 2 * j - 2  # -1 for i = 2j + 1, whose right side is empty
    ls = [(a + i) // 2 for a, _ in _disjoint_splits(n)] if n >= 0 else []
    return AdemRelation((i, j), frozenset((i + j - l, l) for l in ls))


def _reduce_word(word: tuple, degree: int, budget: list, memo: dict) -> frozenset:
    """Set of admissible words equal to a stable word modulo the rewriting
    system, rewriting the rightmost non-admissible pair first.

    Right-side terms that instability kills are dropped before recursing,
    so every word entered here is stable.  memo holds the words already
    reduced on the same class.
    """
    cached = memo.get(word)
    if cached is not None:
        return cached
    budget[0] -= 1
    if budget[0] < 0:
        raise RewriteLimitError(f"rewrite budget exhausted at word {word}")
    pos = next(
        (p for p in range(len(word) - 2, -1, -1) if word[p] > 2 * word[p + 1]), None
    )
    if pos is None:
        result = frozenset({word})
    else:
        prefix, suffix = word[:pos], word[pos + 2:]
        d = degree + sum(suffix)
        acc: set = set()
        # each term has b > j >= d, so only its Q^a can be killed
        for a, b in adem_relation(word[pos], word[pos + 1]).rhs:
            if a >= d + b:
                acc ^= _reduce_word(prefix + (a, b) + suffix, degree, budget, memo)
        result = frozenset(acc)
    memo[word] = result
    return result


def reduce_to_admissible(m: DLSum, step_limit: int = 2_000_000) -> DLSum:
    """Admissible normal form: rightmost non-admissible pair first, memoized.

    The normal form is unique, so the order of rewriting changes only the
    work, not the answer.
    """
    # the memo lives for this call only, so step_limit counts the same
    # words whatever the process reduced before
    budget, memo = [step_limit], {}
    degree = m.klass.degree
    words: set = set()
    for w in m.words:
        if not _unstable(w, degree):
            words ^= _reduce_word(w, degree, budget, memo)
    return DLSum(m.klass, words)


def symmetry_extract_relations(x: GradedClass, window: Window) -> list:
    """Relations forced by symmetry of Q(t)Q(s)x in s and t.

    Q(t)Q(s)x = sum over i, j of (Q^i Q^j x)(s + s^2 t^{-1})^j t^i, so
    the stable word (i, j) lands in bidegree (j + k, i - k) for every k
    with C(j, k) odd, that is (Lucas) every submask k of j.  Symmetry
    makes the words landing at (a, b) and (b, a) sum to zero; for every
    off-diagonal pair with both bidegrees in the window, a nonzero sum is
    a relation among length-2 words.  The relations are read from the
    words; no table of bidegrees is built.
    """
    if window.max_total == inf:
        raise ValueError("symmetry relations need a finite window")
    n, top = x.degree, window.max_total
    # both bidegrees lie in the window only if a, b >= low, and a >= j,
    # b <= i, a + b <= top: so j <= top - low and i >= low
    low = max(window.min_s, window.min_t)
    sums: dict = {}
    for j in range(max(n, 0), top - low + 1):
        submasks = [k for k in range(j + 1) if k & j == k]
        for i in range(max(n + j, low), top - j + 1):
            # a = j + k >= low, b = i - k >= low, and off the diagonal a != b
            for k in submasks:
                if k > i - low:
                    break
                if k >= low - j and 2 * k != i - j:
                    a, b = j + k, i - k
                    words = sums.setdefault((min(a, b), max(a, b)), set())
                    words ^= {(i, j)}
    # each working set is freed as its DLSum is made, so no relation is
    # held twice
    return [DLSum(x, words) for key in list(sums) if (words := sums.pop(key))]


def derive_relations_by_elimination(x: GradedClass, degree_bound: int) -> dict:
    """Independent oracle: solve the symmetry relations by Gaussian
    elimination over F2, expressing each non-admissible pair through
    admissible ones.

    Works degree by degree in d = i + j <= degree_bound; returns a map
    (i, j) -> frozenset of admissible pairs.  Non-admissible columns are
    eliminated first so each pivot row reads off one rewrite.
    """
    n = x.degree
    window = Window(0, -degree_bound, degree_bound)
    relations = symmetry_extract_relations(x, window)
    by_degree: dict = {}
    for rel in relations:
        by_degree.setdefault(sum(next(iter(rel.words))), []).append(rel)

    solved: dict = {}
    for d, rels in by_degree.items():
        # nonzero length-2 words of total degree d, non-admissible first
        pairs = [
            (i, d - i)
            for i in range(d + 1)
            if d - i >= n and i >= n + (d - i)
        ]
        pairs.sort(key=lambda p: (p[0] <= 2 * p[1], p))
        col = {p: c for c, p in enumerate(pairs)}
        rows = []
        for rel in rels:
            vec = 0
            for w in rel.words:
                vec ^= 1 << col[w]
            if vec:
                rows.append(vec)
        # Gaussian elimination, lowest column index = leading
        pivots: dict = {}
        for vec in rows:
            while vec:
                lead = (vec & -vec).bit_length() - 1
                if lead in pivots:
                    vec ^= pivots[lead]
                else:
                    pivots[lead] = vec
                    break
        # back-substitute to reduced form
        for lead in sorted(pivots, reverse=True):
            for other in pivots:
                if other != lead and pivots[other] >> lead & 1:
                    pivots[other] ^= pivots[lead]
        for lead, vec in pivots.items():
            p = pairs[lead]
            if p[0] <= 2 * p[1]:
                continue  # pivot on an admissible word: not a rewrite
            rest = frozenset(
                pairs[c] for c in range(len(pairs)) if c != lead and vec >> c & 1
            )
            solved[p] = rest
    return solved
