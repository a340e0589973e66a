import copy
import pickle
from math import cos

import pytest

from isoclips import (
    ClassSet,
    HarmonicLabel,
    HarmonicSum,
    ICO,
    O2,
    O2_MINUS,
    O3_FULL,
    OCTA,
    OCTA_MINUS,
    SO2,
    SO3,
    TETRA,
    TRIV,
    alt_square,
    cyclic,
    d_h,
    d_v,
    dihedral,
    isotropy_irrep_o3,
    isotropy_irrep_so3,
    sym_square,
    tensor_product,
    z_minus,
)

H = HarmonicSum.single

# Character oracle, independent of the product implementation: the value of
# the character of (H^n, star) at the rotation by theta, or at minus that
# rotation.  Characters multiply under tensor products, and
# chi_S2(x) = (chi(x)^2 + chi(x^2)) / 2, chi_L2(x) = (chi(x)^2 - chi(x^2)) / 2.

THETAS = [0.37, 1.1, 2.03, 2.9]


def chi(s: HarmonicSum, theta: float, improper: bool = False) -> float:
    total = 0.0
    for label, mult in s.terms:
        base = sum(cos(k * theta) for k in range(-label.n, label.n + 1))
        if improper:
            base *= label.minus_one_sign()
        total += mult * base
    return total


class TestTensorProduct:
    def test_h1_h1(self):
        assert tensor_product(H(1), H(1)) == HarmonicSum(
            {HarmonicLabel(0): 1, HarmonicLabel(1, True): 1, HarmonicLabel(2): 1}
        )

    def test_unit(self):
        s = HarmonicSum({HarmonicLabel(4): 1, HarmonicLabel(2): 2})
        assert tensor_product(H(0), s) == s

    def test_h2_h1_degrees(self):
        prod = tensor_product(H(2), H(1))
        assert sorted(l.n for l, _ in prod.terms) == [1, 2, 3]
        assert prod.dim == 15

    @pytest.mark.parametrize("a", range(0, 11))
    @pytest.mark.parametrize("b", range(0, 11))
    def test_dimension_conservation(self, a, b):
        assert tensor_product(H(a), H(b)).dim == (2 * a + 1) * (2 * b + 1)

    def test_character_oracle(self):
        cases = [
            (H(1), H(1)),
            (H(2), H(3)),
            (H(4, True), H(1)),
            (H(2, True), H(3, True)),
            (HarmonicSum({HarmonicLabel(2): 2, HarmonicLabel(1, True): 1}), H(3)),
        ]
        for s1, s2 in cases:
            prod = tensor_product(s1, s2)
            for theta in THETAS:
                for improper in (False, True):
                    want = chi(s1, theta, improper) * chi(s2, theta, improper)
                    assert chi(prod, theta, improper) == pytest.approx(want)

    def test_commutative_associative(self):
        sums = [H(1), HarmonicSum({HarmonicLabel(2): 1, HarmonicLabel(0): 1}), H(3)]
        for a in sums:
            for b in sums:
                assert tensor_product(a, b) == tensor_product(b, a)
        a, b, c = sums
        assert tensor_product(tensor_product(a, b), c) == tensor_product(
            a, tensor_product(b, c)
        )


class TestSquares:
    def test_sym_square_h1(self):
        assert sym_square(H(1)) == HarmonicSum(
            {HarmonicLabel(0): 1, HarmonicLabel(2): 1}
        )

    def test_alt_square_h1_is_twisted(self):
        assert alt_square(H(1)) == HarmonicSum({HarmonicLabel(1, True): 1})

    def test_elasticity_decomposition(self):
        ela = sym_square(sym_square(H(1)))
        assert ela == HarmonicSum(
            {HarmonicLabel(4): 1, HarmonicLabel(2): 2, HarmonicLabel(0): 2}
        )

    @pytest.mark.parametrize("n", range(0, 11))
    def test_dimensions(self, n):
        d = 2 * n + 1
        assert sym_square(H(n)).dim == d * (d + 1) // 2
        assert alt_square(H(n)).dim == d * (d - 1) // 2

    @pytest.mark.parametrize("n", range(0, 11))
    def test_sum_of_squares_is_tensor_square(self, n):
        s = H(n)
        both = sym_square(s) + alt_square(s)
        assert both == tensor_product(s, s)

    def test_character_oracle(self):
        for s in (H(2), H(3, True), HarmonicSum({HarmonicLabel(1): 2, HarmonicLabel(0): 1})):
            sym, alt = sym_square(s), alt_square(s)
            for theta in THETAS:
                # chi(x^2) for x = rot or -rot is the character at rot(2*theta).
                sq = chi(s, 2 * theta, False)
                for improper in (False, True):
                    c = chi(s, theta, improper)
                    assert chi(sym, theta, improper) == pytest.approx((c * c + sq) / 2)
                    assert chi(alt, theta, improper) == pytest.approx((c * c - sq) / 2)

    def test_square_of_sum_dimensions(self):
        for s in (
            HarmonicSum({HarmonicLabel(2): 2, HarmonicLabel(1): 1, HarmonicLabel(0): 3}),
            HarmonicSum.single(1, mult=1200),
        ):
            d = s.dim
            assert sym_square(s).dim == d * (d + 1) // 2
            assert alt_square(s).dim == d * (d - 1) // 2


class TestSO3Irreps:
    def test_low_degrees(self):
        assert isotropy_irrep_so3(0) == ClassSet([SO3])
        assert isotropy_irrep_so3(1) == ClassSet([SO2, SO3])
        assert isotropy_irrep_so3(2) == ClassSet([dihedral(2), O2, SO3])

    def test_degree_4(self):
        assert isotropy_irrep_so3(4) == ClassSet(
            [TRIV, cyclic(2), dihedral(2), dihedral(3), dihedral(4), OCTA, O2, SO3]
        )

    def test_degree_3_contains_tetra(self):
        got = isotropy_irrep_so3(3)
        assert TETRA in got
        assert got == ClassSet(
            [TRIV, cyclic(2), cyclic(3), dihedral(2), dihedral(3), TETRA, SO2, SO3]
        )

    def test_exceptional_membership_windows(self):
        assert OCTA not in isotropy_irrep_so3(11)
        assert OCTA in isotropy_irrep_so3(12)
        assert ICO in isotropy_irrep_so3(6)
        assert ICO not in isotropy_irrep_so3(23)
        assert ICO in isotropy_irrep_so3(24)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_top_and_bottom(self, n):
        got = isotropy_irrep_so3(n)
        assert SO3 in got
        if n >= 3:
            assert TRIV in got


class TestO3Irreps:
    def test_degree_3(self):
        got = isotropy_irrep_o3(HarmonicLabel(3))
        assert got == ClassSet(
            [TRIV, z_minus(2), d_v(2), d_v(3), d_h(6), OCTA_MINUS, O2_MINUS, O3_FULL]
        )

    def test_degree_2_star(self):
        got = isotropy_irrep_o3(HarmonicLabel(2, True))
        assert got == ClassSet([dihedral(2), d_h(4), O2, O3_FULL])

    def test_degree_1(self):
        assert isotropy_irrep_o3(HarmonicLabel(1)) == ClassSet([O2_MINUS, O3_FULL])

    def test_d4h_excluded_at_degree_3(self):
        assert d_h(4) not in isotropy_irrep_o3(HarmonicLabel(3))
        assert d_h(4) in isotropy_irrep_o3(HarmonicLabel(4, True))

    def test_tetra_window_includes_degree_8_exclusion(self):
        assert TETRA not in isotropy_irrep_o3(HarmonicLabel(8, True))
        assert OCTA in isotropy_irrep_o3(HarmonicLabel(8, True))
        assert OCTA_MINUS not in isotropy_irrep_o3(HarmonicLabel(8, True))
        assert TETRA in isotropy_irrep_o3(HarmonicLabel(9))

    def test_zminus_bound(self):
        # k runs to n/3 inclusive.
        got = isotropy_irrep_o3(HarmonicLabel(6, True))
        assert z_minus(2) in got and z_minus(4) in got and z_minus(6) not in got

    def test_plus_id_labels_rejected(self):
        for label in (HarmonicLabel(2), HarmonicLabel(3, True)):
            with pytest.raises(ValueError):
                isotropy_irrep_o3(label)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_minus_one_sign_in_domain(self, n):
        label = HarmonicLabel(n, star=(n % 2 == 0))
        assert label.minus_one_sign() == -1
        assert O3_FULL in isotropy_irrep_o3(label)


class TestHarmonicSum:
    def test_rendering(self):
        s = HarmonicSum({HarmonicLabel(4): 1, HarmonicLabel(2): 2, HarmonicLabel(0): 2})
        assert str(s) == "H4 + 2*H2 + 2*H0"
        assert str(HarmonicSum()) == "0"

    def test_star_ordering(self):
        s = HarmonicSum({HarmonicLabel(2, True): 1, HarmonicLabel(2): 1})
        assert str(s) == "H2 + H2*"

    def test_dim(self):
        assert HarmonicSum({HarmonicLabel(3): 1, HarmonicLabel(2, True): 1,
                            HarmonicLabel(1): 2}).dim == 18


class TestHarmonicLabel:
    def test_equality_and_hash(self):
        assert HarmonicLabel(2) == HarmonicLabel(2, False)
        assert hash(HarmonicLabel(2)) == hash(HarmonicLabel(2, False))
        assert HarmonicLabel(2) != HarmonicLabel(2, True)
        assert HarmonicLabel(2) != HarmonicLabel(3)
        assert HarmonicLabel(2) != (2, False)
        assert len({HarmonicLabel(2), HarmonicLabel(2), HarmonicLabel(2, True)}) == 2

    def test_order(self):
        h2, h2s, h3 = HarmonicLabel(2), HarmonicLabel(2, True), HarmonicLabel(3)
        assert h2 < h2s < h3
        assert h2 <= h2 and h3 >= h2s and h3 > h2
        assert sorted([h3, h2s, h2]) == [h2, h2s, h3]
        with pytest.raises(TypeError):
            h2 < (2, False)

    def test_immutable(self):
        label = HarmonicLabel(2)
        with pytest.raises(AttributeError):
            label.n = 3
        with pytest.raises(AttributeError):
            del label.star
        assert label == HarmonicLabel(2)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            HarmonicLabel(-1)

    @pytest.mark.parametrize("clone", [
        copy.copy,
        copy.deepcopy,
        lambda l: pickle.loads(pickle.dumps(l)),
        lambda l: pickle.loads(pickle.dumps(l, protocol=0)),
    ], ids=["copy", "deepcopy", "pickle", "pickle-0"])
    def test_round_trips(self, clone):
        for label in (HarmonicLabel(0), HarmonicLabel(5, True)):
            assert clone(label) == label

    def test_repr(self):
        assert repr(HarmonicLabel(4, True)) == "HarmonicLabel(n=4, star=True)"
