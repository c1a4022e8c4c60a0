import random

import pytest

from dlash.dyer_lashof import (
    ADEM_INDEX_BOUND,
    AlreadyAdmissibleError,
    DLMonomial,
    DLSum,
    GradedClass,
    RewriteLimitError,
    adem_relation,
    derive_relations_by_elimination,
    reduce_to_admissible,
    symmetry_extract_relations,
    total_power_series,
)
from dlash.laurent import Window

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


def test_monomial_admissibility_and_degree():
    m = DLMonomial((5, 3), X2)
    assert m.is_admissible()
    assert m.degree() == 10
    assert not DLMonomial((6, 2), X2).is_admissible()


def test_instability_suffix():
    # Q^1 on a degree-2 class dies; anything stacked on top dies too
    assert DLMonomial((1,), X2).is_instability_zero()
    assert DLMonomial((9, 1), X2).is_instability_zero()
    assert not DLMonomial((2,), X2).is_instability_zero()


def test_reduce_single_step():
    out = reduce_to_admissible(DLMonomial((6, 2), X2))
    assert out.words == frozenset({(5, 3)})


def test_reduce_is_idempotent():
    rng = random.Random(5)
    for _ in range(120):
        word = tuple(rng.randint(0, 24) for _ in range(rng.randint(1, 4)))
        m = DLMonomial(word, GradedClass("x", rng.randint(0, 3)))
        once = reduce_to_admissible(m)
        assert reduce_to_admissible(once).words == once.words
        for w in once.words:
            assert DLMonomial(w, m.klass).is_admissible()


def test_reduce_terminates_on_large_indices():
    rng = random.Random(17)
    for _ in range(40):
        word = tuple(rng.randint(0, 64) for _ in range(rng.randint(2, 4)))
        out = reduce_to_admissible(DLMonomial(word, X0))
        for w in out.words:
            assert DLMonomial(w, X0).is_admissible()


def test_sum_cancellation():
    m = DLMonomial((5, 3), X2)
    assert (DLSum.of(m) + DLSum.of(m)).is_zero()


def test_total_power_series_entries():
    table = total_power_series(X0, Window(0, -6, 6))
    # coefficient at (e_s, e_t) = (j, i) always contains the word (i, j)
    s = table[(2, 4)]
    assert (4, 2) in s.words


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
    m = DLMonomial((6, 2), X2)
    assert str(m) == "Q^6 Q^2 x[2]"
    assert str(adem_relation(6, 2)) == "Q^6 Q^2 = Q^5 Q^3"
    assert str(adem_relation(5, 2)) == "Q^5 Q^2 = 0"
