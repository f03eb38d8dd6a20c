import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q16det.core import INVERSE, MUL_TABLE
from q16det.group_algebra import (
    GroupRingElement,
    direct_determinant,
    substitute_neg_x,
    swap_components,
)

from oracles import convolve, determinant_matrix, fraction_det

H = (1,) * 8


def elem(a, b):
    return GroupRingElement(tuple(a), tuple(b))


def random_element(rng, height=9):
    return GroupRingElement.from_coeffs(
        [rng.randint(-height, height) for _ in range(16)]
    )


class TestCayleyTable:
    def test_defining_relations(self):
        # X * Y = Y * X**-1 = Y*X^7 (index 15)
        assert MUL_TABLE[1][8] == 15
        # Y * Y = X**4
        assert MUL_TABLE[8][8] == 4
        # X**8 = 1
        g = 0
        for _ in range(8):
            g = MUL_TABLE[g][1]
        assert g == 0

    def test_identity_law(self):
        for g in range(16):
            assert MUL_TABLE[0][g] == g
            assert MUL_TABLE[g][0] == g

    def test_rows_and_columns_are_permutations(self):
        full = set(range(16))
        for i in range(16):
            assert set(MUL_TABLE[i]) == full
            assert {MUL_TABLE[j][i] for j in range(16)} == full

    def test_inverse_table(self):
        for g in range(16):
            assert MUL_TABLE[g][INVERSE[g]] == 0
            assert MUL_TABLE[INVERSE[g]][g] == 0

    def test_associativity(self):
        for a in range(16):
            for b in range(16):
                ab = MUL_TABLE[a][b]
                for c in range(16):
                    assert MUL_TABLE[ab][c] == MUL_TABLE[a][MUL_TABLE[b][c]]

    def test_y_elements_have_order_four(self):
        for g in range(8, 16):
            sq = MUL_TABLE[g][g]
            assert sq == 4  # Y*X^j squared is X^4
            assert MUL_TABLE[sq][sq] == 0


class TestDirectDeterminant:
    def test_identity_element(self):
        assert direct_determinant(GroupRingElement((1,) + (0,) * 7, (0,) * 8)) == 1

    def test_one_plus_h_over_h_gives_17(self):
        assert direct_determinant(elem((2, 1, 1, 1, 1, 1, 1, 1), H)) == 17

    def test_h_family_gives_minus_3072(self):
        assert direct_determinant(elem(H, (1, 0, 1, 1, 1, 0, 0, 0))) == -3072

    def test_equal_blocks_give_zero(self):
        rng = random.Random(7)
        for _ in range(10):
            a = tuple(rng.randint(-9, 9) for _ in range(8))
            assert direct_determinant(elem(a, a)) == 0

    def test_matches_rational_elimination_oracle(self):
        rng = random.Random(42)
        for _ in range(200):
            e = random_element(rng)
            assert direct_determinant(e) == fraction_det(determinant_matrix(e))

    def test_matches_oracle_on_sparse_elements(self):
        # 0/1 support hits singular matrices and zero-pivot row swaps.
        rng = random.Random(3)
        for _ in range(150):
            e = GroupRingElement.from_coeffs([rng.randint(0, 1) for _ in range(16)])
            assert direct_determinant(e) == fraction_det(determinant_matrix(e))

    def test_permutation_like_matrices(self):
        # Single-coefficient elements make M a signed permutation matrix.
        for i in range(16):
            coeffs = [0] * 16
            coeffs[i] = 1
            e = GroupRingElement.from_coeffs(coeffs)
            assert direct_determinant(e) == fraction_det(determinant_matrix(e))

    def test_multiplicativity_over_convolution(self):
        rng = random.Random(11)
        for _ in range(40):
            e1 = random_element(rng, height=3)
            e2 = random_element(rng, height=3)
            assert direct_determinant(convolve(e1, e2)) == direct_determinant(
                e1
            ) * direct_determinant(e2)

    def test_residue_laws_on_random_elements(self):
        rng = random.Random(2024)
        for _ in range(300):
            d = direct_determinant(random_element(rng))
            if d % 2:
                assert d % 4 == 1
            else:
                assert d % 1024 == 0

    def test_automorphism_relabeling_preserves_determinant(self):
        # X -> X^t (t odd), Y -> Y*X^s extends to an automorphism; the
        # relabeled element has the same determinant (simultaneous
        # row/column permutation of the matrix).
        rng = random.Random(5)
        for t in (1, 3, 5, 7):
            for s in (0, 1, 5):
                perm = [(t * j) % 8 for j in range(8)]
                perm += [8 + ((s + t * j) % 8) for j in range(8)]
                for _ in range(5):
                    e = random_element(rng)
                    c = e.a + e.b
                    new = [0] * 16
                    for i in range(16):
                        new[perm[i]] = c[i]
                    assert direct_determinant(
                        GroupRingElement.from_coeffs(new)
                    ) == direct_determinant(e)


class TestElementTransforms:
    def test_substitute_neg_x_rule(self):
        e = substitute_neg_x(elem((1, 1, 0, 0, 0, 0, 0, 0), (0,) * 8))
        assert e.a == (1, -1, 0, 0, 0, 0, 0, 0)
        assert e.b == (0,) * 8

    def test_substitute_neg_x_is_involution(self):
        rng = random.Random(9)
        for _ in range(20):
            e = random_element(rng)
            assert substitute_neg_x(substitute_neg_x(e)) == e

    def test_substitute_neg_x_preserves_determinant(self):
        # A and B swap, C and D are unchanged, so the determinant (and in
        # particular its absolute value) is preserved.
        rng = random.Random(10)
        for _ in range(30):
            e = random_element(rng)
            d1 = direct_determinant(e)
            d2 = direct_determinant(substitute_neg_x(e))
            assert abs(d1) == abs(d2)
            assert d1 == d2

    def test_swap_components(self):
        e = swap_components(elem((1, 0, 0, 0, 0, 0, 0, 0), (0,) * 8))
        assert e.a == (0,) * 8 and e.b == (1, 0, 0, 0, 0, 0, 0, 0)
        assert direct_determinant(e) == 1
        assert direct_determinant(swap_components(e)) == 1

    def test_double_swap_is_identity(self):
        rng = random.Random(13)
        for _ in range(20):
            e = random_element(rng)
            assert swap_components(swap_components(e)) == e

    def test_swap_preserves_determinant(self):
        rng = random.Random(14)
        for _ in range(30):
            e = random_element(rng)
            assert direct_determinant(swap_components(e)) == direct_determinant(e)


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            GroupRingElement((1, 2, 3), (0,) * 8)
        with pytest.raises(ValueError):
            GroupRingElement.from_coeffs([0] * 15)

    @pytest.mark.parametrize("bad", [2.7, 2.0, "3", None])
    def test_non_integer_coefficient_rejected(self, bad):
        # 2.7 would truncate to 2 and "3" would parse as 3.
        with pytest.raises(TypeError):
            GroupRingElement((bad,) + (0,) * 7, (0,) * 8)
        with pytest.raises(TypeError):
            GroupRingElement((0,) * 8, (0,) * 7 + (bad,))
        with pytest.raises(TypeError):
            GroupRingElement.from_coeffs([bad] + [0] * 15)

    def test_zero_and_identity(self):
        zero = GroupRingElement((0,) * 8, (0,) * 8)
        identity = GroupRingElement((1,) + (0,) * 7, (0,) * 8)
        assert not any(zero.a + zero.b)
        assert any(identity.a + identity.b)
        assert direct_determinant(zero) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=16, max_size=16))
def test_determinant_matches_oracle_property(coeffs):
    e = GroupRingElement.from_coeffs(coeffs)
    assert direct_determinant(e) == fraction_det(determinant_matrix(e))
