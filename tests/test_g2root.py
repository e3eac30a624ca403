import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcube.g2root import (
    Affine, BETA1, BETA2, BETA3, BETA4, BETA5, BETA6, POSITIVE_ROOTS,
    RootVector, coroot_decomposition, gram, inverted_roots,
    lambda_weight, pairing, pairing_table, parabolic_weyl_element, reflect,
    rho_parabolic, weyl_group, weyl_word, IDENTITY, RHO1, RHO6)

# independent Gram oracle: expand u^T G v by hand for the 2x2 matrix
_G = ((Q(6), Q(-3)), (Q(-3), Q(2)))


def _gram_oracle(u, v):
    uc = (u.c1, u.c6)
    vc = (v.c1, v.c6)
    return sum(uc[i] * _G[i][j] * vc[j] for i in range(2) for j in range(2))


def test_root_lengths():
    for name in ("beta1", "beta3", "beta5"):
        assert gram(POSITIVE_ROOTS[name], POSITIVE_ROOTS[name]) == 6
    for name in ("beta2", "beta4", "beta6"):
        assert gram(POSITIVE_ROOTS[name], POSITIVE_ROOTS[name]) == 2


def test_gram_examples():
    assert gram(BETA1, BETA1) == 6
    assert gram(BETA6, BETA6) == 2
    assert gram(BETA3, BETA6) == 0


def test_gram_matches_oracle_on_random_vectors():
    rng = random.Random(11)
    for _ in range(50):
        u = RootVector(Q(rng.randrange(-9, 9), rng.randrange(1, 5)),
                       Q(rng.randrange(-9, 9), rng.randrange(1, 5)))
        v = RootVector(Q(rng.randrange(-9, 9), rng.randrange(1, 5)),
                       Q(rng.randrange(-9, 9), rng.randrange(1, 5)))
        assert gram(u, v) == _gram_oracle(u, v)


def test_root_sums():
    assert BETA2 == BETA1 + BETA6
    assert BETA3 == BETA1 + BETA1 + RootVector(0, 3)
    assert BETA4 == BETA1 + RootVector(0, 2)
    assert BETA5 == BETA1 + RootVector(0, 3)


def test_pairing_table_affine_forms():
    table = pairing_table()
    assert table["beta1"] == Affine(0, 2, 0)          # 2r
    assert table["beta2"] == Affine(0, 3, 1)          # s + 3r
    assert table["beta3"] == Affine(0, 1, 1)          # s + r
    assert table["beta4"] == Affine(0, 0, 2)          # 2s
    assert table["beta5"] == Affine(0, -1, 1)         # s - r
    assert table["beta6"] == Affine(0, -3, 1)         # s - 3r


def test_pairing_normalization():
    for beta in POSITIVE_ROOTS.values():
        assert pairing(beta, beta) == 2


def test_pairing_rejects_nonroot():
    with pytest.raises(ValueError):
        pairing(lambda_weight(), RootVector(0, 0))
    with pytest.raises(ValueError):
        pairing(lambda_weight(), RootVector(5, 7))


def test_pairing_via_gram_oracle_at_random_rs():
    rng = random.Random(23)
    lam_sym = lambda_weight()
    for _ in range(25):
        r = Q(rng.randrange(-20, 20), rng.randrange(1, 9))
        s = Q(rng.randrange(-20, 20), rng.randrange(1, 9))
        lam_c1, lam_c6 = s + r, 2 * s   # 2r*beta3 + (s-3r)*beta4 expanded
        lam = RootVector(lam_c1, lam_c6)
        for beta in POSITIVE_ROOTS.values():
            want = 2 * _gram_oracle(lam, beta) / _gram_oracle(beta, beta)
            assert pairing(lam_sym, beta)(r, s) == want


def test_reflect_examples():
    lam = lambda_weight()
    ref = reflect(BETA6, lam)
    assert ref.a3 == Affine(0, -1, 1)    # s - r
    assert ref.a4 == Affine(0, 3, -1)    # 3r - s
    assert reflect(BETA1, BETA1) == -BETA1
    assert reflect(BETA6, BETA1) == BETA5


def test_reflect_is_involution_and_isometry():
    rng = random.Random(5)
    for beta in POSITIVE_ROOTS.values():
        for _ in range(8):
            v = RootVector(Q(rng.randrange(-6, 7)), Q(rng.randrange(-6, 7)))
            w = RootVector(Q(rng.randrange(-6, 7)), Q(rng.randrange(-6, 7)))
            assert reflect(beta, reflect(beta, v)) == v
            assert gram(reflect(beta, v), reflect(beta, w)) == gram(v, w)


def test_weyl_group_order_and_axioms():
    group = weyl_group()
    assert len(group) == 12
    assert IDENTITY in group
    mats = {w.matrix for w in group}
    for a in group:
        assert a.inverse().matrix in mats
        for b in group:
            assert (a * b).matrix in mats


def _weyl_group_by_closure():
    """The group found by breadth-first closure of {rho1, rho6}, each new
    element a generator times one found the step before."""
    seen = {IDENTITY: IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for w in frontier:
            for g in (RHO1, RHO6):
                cand = g * w
                if cand not in seen:
                    seen[cand] = cand
                    nxt.append(cand)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: (len(w.word), w.word)))


def test_weyl_group_lists_what_the_closure_finds():
    listed, found = weyl_group(), _weyl_group_by_closure()
    assert [(w.word, w.matrix) for w in listed] == [(w.word, w.matrix) for w in found]
    assert weyl_group()[-1].word == ("rho6", "rho1") * 3


def test_weyl_preserves_gram_and_roots():
    all_roots = set(POSITIVE_ROOTS.values()) | {-b for b in POSITIVE_ROOTS.values()}
    for w in weyl_group():
        for beta in POSITIVE_ROOTS.values():
            assert w.apply(beta) in all_roots
        for a in POSITIVE_ROOTS.values():
            for b in POSITIVE_ROOTS.values():
                assert gram(w.apply(a), w.apply(b)) == gram(a, b)


def test_generator_relations():
    assert RHO1 * RHO1 == IDENTITY
    assert RHO6 * RHO6 == IDENTITY
    w1 = weyl_word(["rho6", "rho1", "rho6", "rho1", "rho6"])
    w2 = weyl_word(["rho1", "rho6", "rho1", "rho6", "rho1"])
    assert w1 != w2
    assert w1 * RHO1 == RHO1 * w1   # both give the longest element


def test_inverted_roots_examples():
    assert inverted_roots(IDENTITY) == set()
    assert inverted_roots(RHO6) == {BETA6}
    assert inverted_roots(RHO1) == {BETA1}
    long_w = parabolic_weyl_element()
    assert inverted_roots(long_w) == {BETA2, BETA3, BETA4, BETA5, BETA6}


def test_inverted_roots_brute_force_counts_word_length():
    # an alternating word of length at most 6 is reduced, so |word| is the length
    for w in weyl_group():
        assert len(inverted_roots(w)) == len(w.word)


def test_rho_parabolic():
    rp = rho_parabolic()
    assert rp.a3 == Affine(0) and rp.a4 == Affine(Q(5, 2))
    assert (rp.c1, rp.c6) == (Q(5, 2), Q(5))
    assert pairing(rp, BETA1) == 0


def test_coroot_decomposition():
    assert coroot_decomposition(BETA1) == (1, 0)
    assert coroot_decomposition(BETA6) == (0, 1)
    assert coroot_decomposition(BETA2) == (3, 1)
    assert coroot_decomposition(BETA3) == (2, 1)
    assert coroot_decomposition(BETA4) == (3, 2)
    assert coroot_decomposition(BETA5) == (1, 1)
    with pytest.raises(ValueError):
        coroot_decomposition(RootVector(2, 2))


def test_coroot_decomposition_consistency():
    # <lam, beta^vee> = c1 <lam, beta1^vee> + c6 <lam, beta6^vee> for all lam
    rng = random.Random(3)
    for beta in POSITIVE_ROOTS.values():
        c1, c6 = coroot_decomposition(beta)
        for _ in range(10):
            lam = RootVector(Q(rng.randrange(-9, 10)), Q(rng.randrange(-9, 10)))
            lhs = pairing(lam, beta)
            rhs = c1 * pairing(lam, BETA1) + c6 * pairing(lam, BETA6)
            assert lhs == rhs


_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_affines = st.builds(Affine, _rationals, _rationals, _rationals)
# a weight: rational coordinates, or affine ones with the symbolic Lambda among them
_weights = st.one_of(
    st.builds(RootVector, _rationals, _rationals),
    st.builds(RootVector, _affines, _affines),
    st.just(lambda_weight()))


@settings(max_examples=60, deadline=None)
@given(_weights, _rationals, _rationals, st.sampled_from(sorted(POSITIVE_ROOTS)))
def test_reflect_and_basis_on_weights(v, x, y, name):
    """reflect is an involution and an isometry on weights, and a3/a4 are
    the (beta3, beta4) coordinates: a3*beta3 + a4*beta4 == v."""
    beta = POSITIVE_ROOTS[name]
    u = RootVector(x, y)
    assert reflect(beta, reflect(beta, v)) == v
    assert gram(reflect(beta, v), reflect(beta, u)) == gram(v, u)
    assert BETA3 * v.a3 + BETA4 * v.a4 == v


def test_constant_coordinates_are_rationals():
    # an affine coordinate that is constant is stored as its Fraction, so a
    # root built from weights still finds its name
    v = RootVector(Affine(2), Affine(0, 1, 1) - Affine(0, 1, 1) + 3)
    assert (type(v.c1), type(v.c6)) == (Q, Q)
    assert v == BETA3 and hash(v) == hash(BETA3)
    assert lambda_weight(0, 1) == BETA4
    with pytest.raises(TypeError):
        RootVector(0.5, 1)
    with pytest.raises(TypeError):
        BETA1 * 0.5


def test_product_of_two_weights_is_refused():
    # (lam, lam) is quadratic in (r, s): an affine form takes rational factors only
    with pytest.raises(TypeError):
        gram(lambda_weight(), lambda_weight())
    with pytest.raises(TypeError):
        Affine(0, 1, 0) * Affine(0, 0, 1)


def test_affine_formatting():
    table = pairing_table()
    assert str(table["beta6"]) == "s - 3r"
    assert str(table["beta1"]) == "2r"
    assert str(table["beta6"](Q(1, 10), Q(2, 3))) == "11/30"


def test_affine_equality_and_hash_agree_with_rationals():
    form = pairing_table()["beta1"]                   # 2r
    assert (form == 0.5) is False and form != 0.5
    assert form not in [None] and form != "2r"
    assert Affine(2) == Q(2) and Affine(2) == 2
    assert hash(Affine(2)) == hash(Q(2)) == hash(2)
    assert {Q(2): 1}[Affine(2)] == 1 and {Affine(Q(1, 2)): 1}[Q(1, 2)] == 1
    assert Affine(0, 2, 0) != Affine(2) and Affine(0, 2, 0) != 2
