import random
from math import inf

import pytest
from hypothesis import example, given, settings, strategies as st

from dlash.dyer_lashof import (
    ADEM_INDEX_BOUND,
    AlreadyAdmissibleError,
    DLSum,
    GradedClass,
    RewriteLimitError,
    _unstable,
    adem_relation,
    derive_relations_by_elimination,
    reduce_to_admissible,
    symmetry_extract_relations,
)
from dlash.f2 import binom_exact_parity, binom_mod2
from dlash.laurent import Window
from dlash.parser import parse_sum

X0 = GradedClass("x", 0)
X2 = GradedClass("x", 2)


def test_adem_known_relations():
    assert adem_relation(6, 2).rhs == frozenset({(5, 3)})
    assert adem_relation(5, 2).rhs == frozenset()
    assert adem_relation(3, 1).rhs == frozenset()
    # every output pair is admissible
    for i in range(0, 30):
        for j in range(0, i // 2 + 1):
            if i <= 2 * j:
                continue
            for a, b in adem_relation(i, j).rhs:
                assert a <= 2 * b
                assert a + b == i + j


def _adem_rhs_by_scan(i, j, parity=binom_exact_parity):
    # the closed form read directly: scan l over [ceil(i/2), i + j]
    return frozenset(
        (i + j - l, l)
        for l in range((i + 1) // 2, i + j + 1)
        if parity(l - j - 1, 2 * l - i)
    )


def test_adem_enumeration_matches_scan():
    for j in range(40):
        for i in range(2 * j + 1, 200):
            assert adem_relation(i, j).rhs == _adem_rhs_by_scan(i, j), (i, j)


@settings(deadline=None, max_examples=12)
@given(st.integers(1, ADEM_INDEX_BOUND), st.integers(0, ADEM_INDEX_BOUND))
@example(ADEM_INDEX_BOUND, 0)
def test_adem_enumeration_matches_scan_up_to_bound(total, j):
    # total = i + j; a non-admissible pair has j <= (total - 1) / 3
    j %= (total - 1) // 3 + 1
    i = total - j
    assert adem_relation(i, j).rhs == _adem_rhs_by_scan(i, j, binom_mod2)


def test_adem_largest_right_side_at_bound():
    # i - 2j - 2 = 0b11010101010101010100: the most solutions of
    # a + 2b = n with a & b = 0 below the bound, a Fibonacci number
    i, j = 990322, 58254
    assert i + j == ADEM_INDEX_BOUND
    rhs = adem_relation(i, j).rhs
    assert len(rhs) == 10946
    assert all(a + b == i + j and a <= 2 * b for a, b in rhs)
    with pytest.raises(RewriteLimitError):
        adem_relation(i + 1, j)


def test_adem_rejects_admissible_pair():
    with pytest.raises(AlreadyAdmissibleError):
        adem_relation(4, 2)


@pytest.mark.parametrize("i, j", [(3, -1), (-1, 0)])
def test_adem_rejects_negative_index(i, j):
    with pytest.raises(ValueError):
        adem_relation(i, j)


@pytest.mark.parametrize("i, j", [(ADEM_INDEX_BOUND, 1), (10**20, 1)])
def test_adem_refuses_indices_past_bound(i, j):
    with pytest.raises(RewriteLimitError):
        adem_relation(i, j)
    # an admissible pair needs no scan, so it is still answered
    with pytest.raises(AlreadyAdmissibleError):
        adem_relation(j, i)


def _admissible(word: tuple) -> bool:
    return all(a <= 2 * b for a, b in zip(word, word[1:]))


def test_monomial_admissibility_and_degree():
    assert _admissible((5, 3))
    assert not _admissible((6, 2))
    # Q^6 Q^2 x[2] rewrites to Q^5 Q^3 x[2], of the same degree 10
    (word,) = reduce_to_admissible(DLSum(X2, {(6, 2)})).words
    assert _admissible(word) and X2.degree + sum(word) == 10


def test_instability_suffix():
    # Q^1 on a degree-2 class dies; anything stacked on top dies too
    for word, dies in (((1,), True), ((9, 1), True), ((2,), False)):
        assert _unstable(word, X2.degree) is dies
        assert reduce_to_admissible(DLSum(X2, {word})).is_zero() is dies


def test_reduce_single_step():
    out = reduce_to_admissible(DLSum(X2, {(6, 2)}))
    assert out.words == frozenset({(5, 3)})


def test_reduce_is_idempotent():
    rng = random.Random(5)
    for _ in range(120):
        word = tuple(rng.randint(0, 24) for _ in range(rng.randint(1, 4)))
        once = reduce_to_admissible(DLSum(GradedClass("x", rng.randint(0, 3)), {word}))
        assert reduce_to_admissible(once).words == once.words
        for w in once.words:
            assert _admissible(w)


def test_reduce_terminates_on_large_indices():
    rng = random.Random(17)
    for _ in range(40):
        word = tuple(rng.randint(0, 64) for _ in range(rng.randint(2, 4)))
        out = reduce_to_admissible(DLSum(X0, {word}))
        for w in out.words:
            assert _admissible(w)


def test_rewrite_limit_does_not_depend_on_earlier_calls():
    # step_limit counts the words this call reduces: a full reduction of
    # the same word beforehand must not turn a refusal into an answer
    word = parse_sum("Q^584 Q^248 Q^80 Q^32 Q^18 Q^6 Q^1 x[1]")
    with pytest.raises(RewriteLimitError):
        reduce_to_admissible(word, step_limit=5)
    full = reduce_to_admissible(word)
    with pytest.raises(RewriteLimitError):
        reduce_to_admissible(word, step_limit=5)
    assert reduce_to_admissible(word).words == full.words


def _reduce_leftmost_first(word, degree, memo):
    # reference normal form: rewrite the leftmost non-admissible pair
    # first, with the scanned right side, and drop unstable words on entry
    key = (word, degree)
    if key not in memo:
        d, unstable = degree, False
        for i in reversed(word):
            unstable = unstable or i < d
            d += i
        pos = next((p for p in range(len(word) - 1) if word[p] > 2 * word[p + 1]), None)
        if unstable:
            memo[key] = frozenset()
        elif pos is None:
            memo[key] = frozenset({word})
        else:
            acc = frozenset()
            for a, b in _adem_rhs_by_scan(word[pos], word[pos + 1]):
                rewritten = word[:pos] + (a, b) + word[pos + 2:]
                acc ^= _reduce_leftmost_first(rewritten, degree, memo)
            memo[key] = acc
    return memo[key]


@st.composite
def _stable_words(draw):
    # built from the right: each Q^q meets a class of degree d <= q
    degree = draw(st.integers(0, 4))
    d, word = degree, []
    for _ in range(draw(st.integers(2, 6))):
        q = d + draw(st.integers(0, d + 3))
        word.insert(0, q)
        d += q
    return tuple(word), degree


@settings(deadline=None, max_examples=60)
@given(_stable_words())
def test_reduce_matches_leftmost_first_reference(case):
    word, degree = case
    out = reduce_to_admissible(DLSum(GradedClass("x", degree), {word}))
    assert out.words == _reduce_leftmost_first(word, degree, {})


def test_sum_cancellation():
    m = DLSum(X2, {(5, 3)})
    assert (m + m).is_zero()


def _relations_by_table(x, window):
    """The symmetry relations by a table of Q(t)Q(s)x: every bidegree
    (e_s, e_t) of the window with e_s >= 0 collects the stable words
    (i, j) = (e_t + k, e_s - k) with k <= e_s / 2 and C(j, k) odd, and
    each cell is paired once with its mirror when that is in the window."""
    if window.max_total == inf:
        raise ValueError("the table needs a finite window")
    n = x.degree
    table = {}
    for es in range(max(window.min_s, 0), window.max_total - window.min_t + 1):
        for et in range(window.min_t, window.max_total - es + 1):
            words = set()
            for k in range(es // 2 + 1):
                j, i = es - k, et + k
                if j >= n and i >= n + j and binom_mod2(j, k):
                    words ^= {(i, j)}
            if words:
                table[(es, et)] = DLSum(x, words)
    zero = DLSum(x)
    relations, seen = [], set()
    for a, b in table:
        if (a, b) in seen or (b, a) in seen:
            continue
        seen.add((a, b))
        if not window.contains(b, a):
            continue
        rel = table.get((a, b), zero) + table.get((b, a), zero)
        if not rel.is_zero():
            relations.append(rel)
    return relations


@st.composite
def _symmetry_cases(draw):
    """A class of degree -3..6 and a window whose lower bounds lie on both
    sides of 0, so a word and its mirror can each fall outside it."""
    min_s, min_t = draw(st.integers(-6, 8)), draw(st.integers(-20, 8))
    max_total = draw(st.integers(max(min_s + min_t, -4), 30))
    return GradedClass("x", draw(st.integers(-3, 6))), Window(min_s, min_t, max_total)


@settings(deadline=None, max_examples=300)
@given(_symmetry_cases())
@example((GradedClass("x", 1), Window(0, -24, 24)))
@example((GradedClass("x", -3), Window(-6, -20, 0)))
@example((GradedClass("x", -40), Window(-6, -20, 4)))
def test_symmetry_relations_match_the_table_scan(case):
    """The relations read from the words are those of the bidegree table,
    duplicates included; only their order may differ."""
    x, window = case

    def words(rels):
        return sorted(tuple(sorted(r.words)) for r in rels)

    assert words(symmetry_extract_relations(x, window)) == words(_relations_by_table(x, window))


def test_symmetry_relations_need_a_finite_window():
    with pytest.raises(ValueError):
        symmetry_extract_relations(X0, Window(0, -6))


def test_symmetry_relations_reduce_to_zero():
    for n in range(0, 3):
        x = GradedClass("x", n)
        for rel in symmetry_extract_relations(x, Window(0, -12, 12)):
            assert reduce_to_admissible(rel).is_zero()


def test_elimination_matches_adem():
    for n in (1, 2):
        solved = derive_relations_by_elimination(GradedClass("x", n), 12)
        assert solved  # the sweep finds something
        for (i, j), rhs in solved.items():
            expected = frozenset(
                (a, b)
                for a, b in adem_relation(i, j).rhs
                if b >= n and a >= n + b
            )
            assert rhs == expected


def test_str_round_shapes():
    assert str(DLSum(X2, {(6, 2)})) == "Q^6 Q^2 x[2]"
    # the words print sorted, not in the set's order (5, 3), (6, 2), (4, 4)
    assert str(DLSum(X2, {(6, 2), (5, 3), (4, 4)})) == "Q^4 Q^4 x[2] + Q^5 Q^3 x[2] + Q^6 Q^2 x[2]"
    assert str(DLSum(X2)) == "0" and str(DLSum(X2, {()})) == "x[2]"
    assert str(X2) == "x[2]" and repr(X2) == "GradedClass(name='x', degree=2)"
    assert str(adem_relation(6, 2)) == "Q^6 Q^2 = Q^5 Q^3"
    assert str(adem_relation(5, 2)) == "Q^5 Q^2 = 0"
