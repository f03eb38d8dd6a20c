import hashlib
import json

import pytest

from q16det import core, kernel
from q16det.cli import certificate_document
from q16det.errors import (
    BadInput,
    InternalInconsistency,
    NotMultiple,
    ParityViolation,
    PatternMismatch,
    WrongResidue,
)
from q16det.exact_eval import factored_form
from q16det.group_algebra import GroupRingElement, direct_determinant
from q16det.primes import primes_below
from q16det.quad_ring import CaseLabel, FourSquares, normalize_decomposition
from q16det.witness import (
    _U_PATTERNS,
    _V_PATTERNS,
    _certify,
    _lift,
    build_low_degree_pair,
    poly_h,
    witness_even,
    witness_odd_1mod8,
    witness_odd_5mod8,
)

H = (1,) * 8


class TestPolyH:
    def test_coefficients(self):
        assert poly_h() == H

    def test_vanishing(self):
        h = poly_h()
        assert sum(h) == 8  # h(1)
        assert sum(c * (-1) ** j for j, c in enumerate(h)) == 0  # h(-1)
        assert h[0] - h[2] + h[4] - h[6] == 0 and h[1] - h[3] + h[5] - h[7] == 0
        assert all(h[j] - h[j + 4] == 0 for j in range(4))  # h(w) = 0


class TestWitnessEven:
    def test_minus_3072_uses_h_family(self):
        cert = witness_even(-3072)
        assert cert.element.a == H
        assert cert.element.b == (1, 0, 1, 1, 1, 0, 0, 0)
        assert cert.trace == {"family": "even_1024_4m_minus_3", "m": 0}

    def test_zero(self):
        cert = witness_even(0)
        assert cert.n == 0 and cert.verified
        assert any(cert.element.a + cert.element.b)
        assert cert.trace["family"] == "even_4096_m" and cert.trace["m"] == 0

    def test_2048_uses_third_family(self):
        cert = witness_even(2048)
        assert cert.trace == {"family": "even_2048_2m_minus_1", "m": 1}
        # f = 1+x+x^2+x^3+x^4+x^5-h, g = 1+x^4-h
        assert cert.element.a == (0, 0, 0, 0, 0, 0, -1, -1)
        assert cert.element.b == (0, -1, -1, -1, 0, -1, -1, -1)

    def test_all_residues_of_t(self):
        for t in range(-10, 11):
            cert = witness_even(1024 * t)
            assert cert.n == 1024 * t and cert.verified

    def test_not_multiple_rejected(self):
        with pytest.raises(NotMultiple):
            witness_even(512)
        with pytest.raises(NotMultiple):
            witness_even(2)



class TestCertifyMessages:
    """The rule's messages print integers past the interpreter's 4,300-digit
    limit in a bounded form instead of raising ValueError."""

    def test_wrong_huge_target(self, default_digit_limit):
        one = GroupRingElement((1,) + (0,) * 7, (0,) * 8)
        with pytest.raises(InternalInconsistency) as exc:
            _certify(10**5000, one, {})
        assert str(exc.value) == (
            "witness for 10000000000000000000...(5001 digits) evaluates to 1; trace={}"
        )

    @pytest.mark.parametrize(
        "entry,fault,message",
        [
            (
                "factored_terms",
                lambda out: (out[0] + 2, *out[1:]),
                ": A*B*C^2*D^2 of (A, B, C, D) = (-63999999999999999999...(5002 digits), "
                "-4, -2, 2) is 40959999999999999999...(5004 digits)",
            ),
            (
                "group_det",
                lambda out: out + 1,
                " evaluates to 40960000000000000000...(5004 digits); "
                "trace={'family': 'even_4096_m', 'm': 10000000000000000000...(5001 digits)}",
            ),
        ],
        ids=["factored", "direct"],
    )
    def test_kernel_fault_on_a_huge_target(
        self, monkeypatch, default_digit_limit, entry, fault, message
    ):
        # even_4096_m at m = 10**5000: the trace, a coefficient sum and both
        # determinants are past the limit.  The rule looks both paths up on
        # core; the calls list shows that the fault was reached.
        original = getattr(core, entry)
        calls = []

        def faulty(a, b):
            calls.append((a, b))
            return fault(original(a, b))

        monkeypatch.setattr(core, entry, faulty)
        with pytest.raises(InternalInconsistency) as exc:
            witness_even(4096 * 10**5000)
        assert len(calls) == 1
        assert str(exc.value) == "witness for 40960000000000000000...(5004 digits)" + message


class TestHugeInputMessages:
    """The entry points refuse a target or prime past the interpreter's
    4,300-digit limit with their own error, printing it bounded."""

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda h: witness_even(512 * h), NotMultiple, "is not a multiple of 2\\*\\*10"),
            (lambda h: witness_odd_1mod8(3 * h), WrongResidue, "is not 1 mod 8"),
            (lambda h: witness_odd_5mod8(3 * h, 7), BadInput, "is not 5 mod 8"),
            (lambda h: witness_odd_5mod8(5, h), BadInput, "is not a prime congruent to 7 mod 8"),
        ],
        ids=["even", "odd_1mod8", "odd_5mod8", "odd_5mod8_p"],
    )
    def test_refusal(self, default_digit_limit, call, error, message):
        # 5**7000 has 4,893 digits and is 1 mod 8.
        with pytest.raises(error, match=rf"^(p=)?\d{{20}}\.\.\.\(\d+ digits\) {message}$"):
            call(5**7000)


class TestWitnessOdd1Mod8:
    def test_17(self):
        cert = witness_odd_1mod8(17)
        assert cert.element.a == (2, 1, 1, 1, 1, 1, 1, 1)
        assert cert.element.b == H

    def test_1_is_trivial_element(self):
        cert = witness_odd_1mod8(1)
        assert cert.element == GroupRingElement((1,) + (0,) * 7, (0,) * 8)

    def test_minus_7(self):
        cert = witness_odd_1mod8(-7)
        assert cert.trace == {"family": "odd_16m_minus_7", "m": 0}
        assert cert.element.a == (1, -1, 1, 1, 0, 0, 0, 1)
        assert cert.element.b == (1, 0, 0, 1, 1, 0, 0, 1)

    def test_residue_coverage(self):
        for n in range(-399, 400, 8):
            if n % 8 == 1:
                assert witness_odd_1mod8(n).verified

    def test_wrong_residue(self):
        with pytest.raises(WrongResidue):
            witness_odd_1mod8(5)
        with pytest.raises(WrongResidue):
            witness_odd_1mod8(2)


class TestLowDegreePair:
    def test_example_one_odd_beta(self):
        fs = FourSquares(((1, 1), (1, 0), (1, 0), (1, 0)))
        a, b = build_low_degree_pair(fs)
        assert a == (0, 1, 1, 0) and b == (0, 0, 1, 0)

    def test_example_three_odd_beta(self):
        fs = FourSquares(((1, 1), (1, 1), (1, 1), (3, 2)))
        a, b = build_low_degree_pair(fs)
        assert a == (0, 1, 1, 1) and b == (-1, 1, 2, 2)

    def test_zero_decomposition(self):
        a, b = build_low_degree_pair(FourSquares(((0, 0),) * 4))
        assert a == (0, 0, 0, 0) and b == (0, 0, 0, 0)

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            build_low_degree_pair(FourSquares(((1, 0), (2, 0), (1, 0), (1, 0))))

    def test_huge_parity_violation_message_is_bounded(self, default_digit_limit):
        # The refusal prints the alphas' parities, not the pairs.
        with pytest.raises(ParityViolation, match=r"parities \(1, 0, 1, 1\)$"):
            build_low_degree_pair(FourSquares(((10**5000 + 1, 0), (2, 0), (1, 0), (1, 0))))

    def test_norm_identity(self):
        fs = FourSquares(((1, 1), (1, 1), (1, 1), (3, 2)))
        a, b = build_low_degree_pair(fs)
        _, _, _, x, y = kernel.factored_terms(a + (0, 0, 0, 0), b + (0, 0, 0, 0))
        assert (x, y) == (13, 9)


class TestExtractUvks:
    """``_lift``'s parity split c = u + 2k, and its pattern check."""

    def test_examples(self):
        u, f = _lift((0, 1, 1, 1), 0, _U_PATTERNS)
        assert u == (0, 1, 1, 1)  # x(1+x+x^2), k = 0
        assert f == (0, 1, 1, 1, 0, 0, 0, 0)
        v, g = _lift((-1, 1, 2, 2), 0, _V_PATTERNS)
        assert v == (1, 1, 0, 0)  # 1+x, k = (-1, 0, 1, 1)
        assert g == (0, 1, 1, 1, 1, 0, -1, -1)

    def test_v_x_squared(self):
        v, g = _lift((0, 0, 1, 0), 0, _V_PATTERNS)
        assert v == (0, 0, 1, 0)
        assert g == (0, 0, 1, 0, 0, 0, 0, 0)  # k = 0

    def test_pattern_mismatch(self):
        with pytest.raises(PatternMismatch):
            _lift((0, 0, 0, 0), 0, _U_PATTERNS)
        with pytest.raises(PatternMismatch):
            _lift((1, 0, 1, 0), 0, _V_PATTERNS)  # 1 + x^2 not a v pattern

    def test_huge_pattern_mismatch_message_is_bounded(self, default_digit_limit):
        with pytest.raises(
            PatternMismatch, match=r"^parities \(0, 0, 0, 0\) match no expected pattern$"
        ):
            _lift((2 * 10**5000, 0, 0, 0), 0, _U_PATTERNS)


class TestApplyShift:
    """``_lift``'s u + (1 - x^4)*k - m*h as degree-7 coefficients."""

    def test_trivial(self):
        e = GroupRingElement(
            _lift((1, 1, 0, 0), 0, _U_PATTERNS)[1], _lift((1, 0, 0, 0), 0, _V_PATTERNS)[1]
        )
        assert e.a == (1, 1, 0, 0, 0, 0, 0, 0)
        assert e.b == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_637_example(self):
        e = GroupRingElement(
            _lift((0, 1, 1, 0), 1, _U_PATTERNS)[1], _lift((0, 0, 1, 0), 1, _V_PATTERNS)[1]
        )
        assert e.a == (-1, 0, 0, -1, -1, -1, -1, -1)
        assert direct_determinant(e) == 637

    def test_245_example(self):
        e = GroupRingElement(
            _lift((0, 1, 1, 1), 0, _U_PATTERNS)[1], _lift((-1, 1, 2, 2), 0, _V_PATTERNS)[1]
        )
        assert e.a == (0, 1, 1, 1, 0, 0, 0, 0)
        assert e.b == (0, 1, 1, 1, 1, 0, -1, -1)
        assert direct_determinant(e) == 245


@pytest.mark.parametrize(
    "entry,args",
    [
        (witness_even, (1024.0,)),
        (witness_even, ("1024",)),
        (witness_odd_1mod8, (17.0,)),
        (witness_odd_1mod8, (None,)),
        (witness_odd_5mod8, (245.0, 7)),
        (witness_odd_5mod8, (245, 7.0)),
        (witness_odd_5mod8, ("245", 7)),
    ],
)
def test_non_integer_arguments_rejected(entry, args):
    # witness_odd_5mod8(245.0, 7) used to certify n=245.0 with float m and shift.
    with pytest.raises(TypeError):
        entry(*args)


class TestWitnessOdd5Mod8:
    def test_245(self):
        cert = witness_odd_5mod8(245, 7)
        assert cert.element.a == (0, 1, 1, 1, 0, 0, 0, 0)
        assert cert.element.b == (0, 1, 1, 1, 1, 0, -1, -1)
        assert cert.trace["adjusted"] == (13, 9)
        assert cert.trace["x_target"] == 1
        assert cert.trace["case"] == "case1_three_odd_beta"

    def test_637(self):
        cert = witness_odd_5mod8(637, 7)
        assert cert.trace["adjusted"] == (3, 1)
        assert cert.trace["x_target"] == 3
        ff = cert.factored
        assert (ff.A, ff.B, ff.C, ff.D) == (-13, -1, 1, 7)

    def test_minus_147(self):
        cert = witness_odd_5mod8(-147, 7)
        ff = cert.factored
        assert (ff.A, ff.B, ff.C, ff.D) == (3, -1, 1, 7)
        assert cert.trace["shift"] == 0

    def test_z_preserved_and_quadruples(self):
        for p in (7, 23, 31):
            for shift in (-2, -1, 0, 1, 2):
                for m, quad in (
                    (16 * shift - 3, (3 - 16 * shift, -1, 1, p)),
                    (5 - 16 * shift, (5 - 16 * shift, 1, -1, p)),
                ):
                    cert = witness_odd_5mod8(m * p * p, p)
                    ff = cert.factored
                    assert (ff.A, ff.B, ff.C, ff.D) == quad
                    assert (ff.z.x, ff.z.y) == cert.trace["adjusted"]
                    assert ff.z.x % 4 == cert.trace["x_target"]

    def test_mp2_certificates_pinned(self):
        # Every m*p**2 with p = 7 mod 8 below 2000 and m in {5, -3, 13, -11}:
        # the certificate documents hash to the digest they had before the
        # parity layouts became one table and the lift one step.
        digest = hashlib.sha256()
        cases = set()
        count = 0
        for p in primes_below(2000):
            if p % 8 != 7:
                continue
            for m in (5, -3, 13, -11):
                cert = witness_odd_5mod8(m * p * p, p)
                cases.add(cert.trace["case"])
                doc = certificate_document(cert).to_json_dict()
                digest.update(json.dumps(doc, sort_keys=True).encode())
                count += 1
        assert count == 312
        assert cases == {"case1_one_odd_beta", "case1_three_odd_beta"}
        assert digest.hexdigest() == (
            "ab27d7da1fb81217df32273723ea2f8a6e7204e0e71bc246e349eb6ec18ce64b"
        )

    def test_bad_inputs(self):
        with pytest.raises(BadInput):
            witness_odd_5mod8(245, 23)  # 23^2 does not divide 245
        with pytest.raises(BadInput):
            witness_odd_5mod8(15, 7)  # 15 = 7 mod 8
        with pytest.raises(BadInput):
            witness_odd_5mod8(5 * 17 * 17, 17)  # p = 1 mod 8
        with pytest.raises(BadInput):
            witness_odd_5mod8(5 * 15 * 15, 15)  # composite p


class TestCase2Algebra:
    """The alternative parity layout still lands on the same values."""

    def test_case2_incongruent_gives_same_product(self):
        fs = FourSquares(((3, 2), (1, 1), (2, 1), (0, 0)))  # 26 + 18*sqrt2
        ordered, label = normalize_decomposition(fs)
        assert label is CaseLabel.CASE2_INCONGRUENT_MOD4
        a, b = build_low_degree_pair(ordered)
        u, f = _lift(a, 0, _U_PATTERNS)
        v, g = _lift(b, 0, _V_PATTERNS)
        assert u == (1, 1, 0, 0) and v == (1, 1, 1, 0)
        e = GroupRingElement(f, g)
        ff = factored_form(e)
        assert (ff.A, ff.B, ff.C, ff.D) == (-5, -1, 1, 7)
        assert direct_determinant(e) == 245

    def test_case2_congruent_gives_same_product(self):
        fs = FourSquares(((1, 1), (1, 0), (0, 1), (0, 0)))  # 6 + 2*sqrt2
        ordered, label = normalize_decomposition(fs)
        assert label is CaseLabel.CASE2_CONGRUENT_MOD4
        a, b = build_low_degree_pair(ordered)
        _, f = _lift(a, 0, _U_PATTERNS)
        v, g = _lift(b, 0, _V_PATTERNS)
        assert v == (0, 1, 0, 0)  # v = x arises here
        e = GroupRingElement(f, g)
        ff = factored_form(e)
        assert (ff.A, ff.B, ff.C, ff.D) == (3, -1, 1, 7)
        assert direct_determinant(e) == -147
