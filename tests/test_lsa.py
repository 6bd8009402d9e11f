"""Point-case algebra checks, the symplectic-to-product construction, and
the restricted scalar cochain complex.

Frozen expected dimensions below were derived by hand from the complex's
definition and are cross-checked here against both elimination routines.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psalib.exactlinalg import QMatrix
from psalib.lsa import (
    Cochain,
    FiniteAlgebra,
    RepresentationData,
    SkewForm,
    check_invariant_form,
    check_left_symmetric,
    check_representation,
    coboundary,
    cochain_space_dim,
    lsa_from_symplectic_lie,
    membership_matrix,
    restricted_basis,
    restricted_cohomology_dims,
    subadjacent_lie,
)


def lsa2() -> FiniteAlgebra:
    """dim 2, e1*e2 = e2, all other basis products zero."""
    return FiniteAlgebra(2, {(0, 1, 1): 1})


def abelian(dim: int) -> FiniteAlgebra:
    return FiniteAlgebra(dim, {})


def test_lsa2_is_left_symmetric():
    rep = check_left_symmetric(lsa2())
    assert rep.passed()


def test_left_symmetry_failure_is_witnessed():
    bad = FiniteAlgebra(2, {(0, 1, 1): 1, (1, 1, 0): 1})
    rep = check_left_symmetric(bad)
    assert not rep.passed()
    fails = rep.failures()
    assert fails and fails[0].witness


def test_subadjacent_lie_of_lsa2():
    lie = subadjacent_lie(lsa2())
    assert lie.basis_product(0, 1) == (0, 1)
    assert lie.basis_product(1, 0) == (0, -1)
    assert lie.basis_product(0, 0) == (0, 0)


def test_associator_bilinearity_random_extension():
    """Left symmetry on the basis extends bilinearly: random rational
    vectors must satisfy the same identity."""
    alg = lsa2()
    import random
    rng = random.Random(7)
    for _ in range(25):
        u, v, w = (tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(2)) for _ in range(3))
        left = alg.associator(u, v, w)
        right = alg.associator(v, u, w)
        assert left == right


# ---------------------------------------------------------------------------
# invariant forms and the symplectic construction


def aff1_bracket() -> FiniteAlgebra:
    """[e1, e2] = e2 as a skew product (the dim-2 nonabelian Lie algebra)."""
    return FiniteAlgebra(2, {(0, 1, 1): 1, (1, 0, 1): -1})


def std_form() -> SkewForm:
    return SkewForm(QMatrix([[0, 1], [-1, 0]]))


def test_lsa_from_symplectic_lie_product_table():
    alg = lsa_from_symplectic_lie(aff1_bracket(), std_form())
    assert alg.basis_product(0, 0) == (-1, 0)
    assert alg.basis_product(0, 1) == (0, 0)
    assert alg.basis_product(1, 0) == (0, -1)
    assert alg.basis_product(1, 1) == (0, 0)


def test_lsa_from_symplectic_lie_postconditions():
    lie = aff1_bracket()
    alg = lsa_from_symplectic_lie(lie, std_form())
    assert check_left_symmetric(alg).passed()
    # the commutator of the built product reproduces the bracket
    got = subadjacent_lie(alg)
    assert got.constants == lie.constants
    # invariance of the form for the built product
    assert check_invariant_form(alg, std_form()).passed()


def test_lsa_from_symplectic_lie_preconditions():
    with pytest.raises(ValueError):
        lsa_from_symplectic_lie(lsa2(), std_form())  # not skew
    with pytest.raises(ValueError):
        lsa_from_symplectic_lie(aff1_bracket(),
                                SkewForm(QMatrix([[0, 0], [0, 0]])))
    # Jacobi failure in dim 3
    bad = FiniteAlgebra(3, {(0, 1, 2): 1, (1, 0, 2): -1,
                            (1, 2, 0): 1, (2, 1, 0): -1,
                            (2, 0, 2): 1, (0, 2, 2): -1})
    with pytest.raises(ValueError):
        lsa_from_symplectic_lie(
            bad, SkewForm(QMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])))


def test_invariant_form_failure_detected():
    alg = lsa2()
    rep = check_invariant_form(alg, std_form())
    # (e1*e2, e1) + (e2, [e1,e1]) = w(e2,e1) = -1 != 0
    assert not rep.passed()


# ---------------------------------------------------------------------------
# representations


def test_left_right_multiplication_is_a_representation():
    alg = lsa2()
    zero = QMatrix.zeros(2, 2)
    left = (QMatrix([[0, 0], [0, 1]]), zero)
    right = (zero, QMatrix([[0, 0], [1, 0]]))
    rep = check_representation(alg, RepresentationData(left, right))
    assert rep.passed()


def test_swapped_actions_fail():
    alg = lsa2()
    zero = QMatrix.zeros(2, 2)
    left = (QMatrix([[0, 0], [0, 1]]), zero)
    right = (zero, QMatrix([[0, 0], [1, 0]]))
    rep = check_representation(alg, RepresentationData(right, left))
    assert not rep.passed()


# ---------------------------------------------------------------------------
# cochains and the restricted complex


def test_cochain_antisymmetry_and_canonical_keys():
    phi = Cochain(3, 3, {((0, 1), 2): 1})
    assert phi.value((0, 1, 2)) == 1
    assert phi.value((1, 0, 2)) == -1
    assert phi.value((0, 0, 2)) == 0
    with pytest.raises(ValueError):
        Cochain(3, 3, {((1, 0), 2): 1})


def test_degree1_coboundary_on_lsa2():
    alg = lsa2()
    phi = Cochain(2, 1, {((), 1): 1})
    d = coboundary(alg, phi)
    # d phi(x,y) = -phi(x*y)
    assert d.value((0, 1)) == -1
    assert d.value((1, 0)) == 0
    assert d.value((0, 0)) == 0


def test_degree2_coboundary_on_lsa2_hand_values():
    alg = lsa2()
    a, b, c = Fraction(5), Fraction(7), Fraction(11)
    phi = Cochain(2, 2, {((0,), 0): a, ((0,), 1): b,
                         ((1,), 0): b, ((1,), 1): c})
    d = coboundary(alg, phi)
    assert d.value((0, 1, 0)) == -b
    assert d.value((0, 1, 1)) == -2 * c


def cochains(dim, degree):
    keys = list(Cochain.keys(dim, degree))
    return st.lists(
        st.integers(-4, 4), min_size=len(keys), max_size=len(keys)
    ).map(lambda vals: Cochain(dim, degree,
                               dict(zip(keys, map(Fraction, vals)))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.data())
def test_coboundary_squares_to_zero(degree, data):
    for alg in (lsa2(), abelian(2),
                lsa_from_symplectic_lie(aff1_bracket(), std_form())):
        phi = data.draw(cochains(alg.dim, degree))
        dd = coboundary(alg, coboundary(alg, phi))
        assert not dd.components


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.data())
def test_coboundary_preserves_restricted_subspaces(degree, data):
    """A restricted cochain's coboundary satisfies the next restriction."""
    for alg in (lsa2(), lsa_from_symplectic_lie(aff1_bracket(), std_form())):
        basis = restricted_basis(alg, degree)
        if not basis:
            continue
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                    max_size=len(basis)))
        vec = [sum(Fraction(c) * v[i] for c, v in zip(coeffs, basis))
               for i in range(len(basis[0]))]
        phi = Cochain.from_vector(alg.dim, degree, vec)
        img = coboundary(alg, phi).to_vector()
        member = membership_matrix(alg, degree + 1)
        assert all(x == 0 for x in member.mulvec(img))


def test_restricted_subspace_dims():
    alg = lsa2()
    assert len(restricted_basis(alg, 1)) == 1
    assert len(restricted_basis(alg, 2)) == 3
    assert len(restricted_basis(alg, 3)) == 2
    ab = abelian(2)
    assert len(restricted_basis(ab, 1)) == 2
    assert len(restricted_basis(ab, 2)) == 3
    assert len(restricted_basis(ab, 3)) == 2


def test_cochain_space_dims():
    assert cochain_space_dim(2, 1) == 2
    assert cochain_space_dim(2, 2) == 4
    assert cochain_space_dim(2, 3) == 2
    assert cochain_space_dim(3, 3) == 9


def test_abelian_dim2_restricted_cohomology():
    """All coboundaries vanish, so the dims are the subspace dims."""
    ab = abelian(2)
    assert restricted_cohomology_dims(ab, 1) == (2, 0, 2)
    assert restricted_cohomology_dims(ab, 2) == (3, 0, 3)
    assert restricted_cohomology_dims(ab, 3) == (2, 0, 2)


def test_lsa2_restricted_cohomology_hand_derived():
    alg = lsa2()
    assert restricted_cohomology_dims(alg, 1) == (1, 0, 1)
    assert restricted_cohomology_dims(alg, 2) == (1, 0, 1)
    assert restricted_cohomology_dims(alg, 3) == (2, 2, 0)


def test_two_elimination_routes_agree():
    for alg in (lsa2(), abelian(2), abelian(3),
                lsa_from_symplectic_lie(aff1_bracket(), std_form())):
        for n in (1, 2, 3):
            assert restricted_cohomology_dims(alg, n, "bareiss") == \
                restricted_cohomology_dims(alg, n, "gauss")


def test_unknown_elimination_is_rejected():
    with pytest.raises(ValueError, match="elimination"):
        restricted_cohomology_dims(abelian(2), 2, "bogus")


def test_dim3_across_degrees_consistency():
    """On a dim-3 algebra the machinery still squares to zero and the
    restricted dims are internally consistent (ker >= im >= 0)."""
    alg = FiniteAlgebra(3, {(0, 1, 1): 1, (0, 2, 2): 1})
    assert check_left_symmetric(alg).passed()
    for n in (1, 2, 3):
        ker, im, h = restricted_cohomology_dims(alg, n)
        assert ker >= 0 and im >= 0 and h == ker - im
        assert im <= ker
