import itertools
import random
from math import isqrt

import pytest

from q16det import quad_ring
from q16det.errors import (
    InternalInconsistency,
    InvalidResidue,
    NoDecomposition,
    NonResidue,
    NotPrime,
    NoValidArrangement,
)
from q16det.exact_eval import QuadraticSqrt2
from q16det.primes import is_probable_prime, primes_below
from q16det.quad_ring import (
    CaseLabel,
    FourSquares,
    SplitSolution,
    _square_root,
    cohn_four_squares,
    four_squares,
    normalize_decomposition,
    split_prime,
    sqrt2_mod_p,
    unit_adjust,
)

from oracles import brute_split, four_squares_reference, normalize_reference

# 5**7000 has 4,893 digits, past the interpreter's default limit, and is
# 1 mod 8; a message prints it by its first 20 digits and digit count.
HUGE = 5**7000
BOUNDED = r"\d{20}\.\.\.\(4893 digits\)"


class TestSqrt2ModP:
    def test_small_primes(self):
        assert sqrt2_mod_p(7) == 3
        assert sqrt2_mod_p(23) == 5
        assert sqrt2_mod_p(17) == 6

    def test_square_root_property(self):
        for p in primes_below(3000):
            if p % 8 in (1, 7):
                r = sqrt2_mod_p(p)
                assert 0 < r < p and r * r % p == 2

    def test_non_residue(self):
        with pytest.raises(NonResidue):
            sqrt2_mod_p(5)
        with pytest.raises(NonResidue):
            sqrt2_mod_p(11)  # 3 mod 8

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            sqrt2_mod_p(15)
        with pytest.raises(NotPrime):
            sqrt2_mod_p(7 * 23)

    def test_huge_composite_message_is_bounded(self, default_digit_limit):
        with pytest.raises(NotPrime, match=f"^{BOUNDED} is not prime$"):
            sqrt2_mod_p(HUGE)

    def test_non_residue_search_is_bounded(self):
        # 561 = 3*11*17 is 1 mod 8, and z**280 is 1 mod 3 for every z prime
        # to 3, so no z passes Euler's test and an unbounded search never
        # ends.  A prime p has a non-residue z with z*(z - 1) < p, so the
        # search stops at z = 25.
        message = r"^561: no quadratic non-residue z with z\*\(z - 1\) < p, not prime$"
        with pytest.raises(NotPrime, match=message):
            quad_ring._tonelli_shanks(2, 561)

    def test_main_loop_is_guarded(self):
        # 1649 = 17*97 is 1 mod 8 and passes the non-residue search, but no
        # i < m has t**(2**i) = 1, so m would reach 0 and the shift count
        # m - i - 1 turn negative: a ValueError without the guard.
        message = r"^1649: no i < m with t\*\*\(2\*\*i\) = 1, not prime$"
        with pytest.raises(NotPrime, match=message):
            quad_ring._tonelli_shanks(2, 1649)


class TestTimes:
    def test_is_the_product_in_z_sqrt2(self):
        # For q prime and r**2 = 2 (mod q), sqrt(2) -> r maps Z[sqrt(2)]
        # onto the integers mod q, and it maps products to products.
        rng = random.Random(30)
        roots = {q: r for q in (7, 17, 23, 31, 41, 47) for r in range(q) if r * r % q == 2}
        for _ in range(200):
            x, y, u, v = (rng.randint(-(10**12), 10**12) for _ in range(4))
            a, b = quad_ring._times(x, y, u, v)
            assert a * a - 2 * b * b == (x * x - 2 * y * y) * (u * u - 2 * v * v)
            for q, r in roots.items():
                assert (a + b * r - (x + y * r) * (u + v * r)) % q == 0, (x, y, u, v, q)


def _q(a, b):
    return a * a + 2 * b * b


class TestShortest:
    def test_matches_brute_force_minimum(self):
        # Every lattice vector with Q below Q(u) lies in the box, so the
        # box's least nonzero Q over the lattice is the lattice's.
        rng = random.Random(31)
        for _ in range(150):
            u, v = sorted(
                ((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2)), key=lambda w: _q(*w)
            )
            det = u[0] * v[1] - u[1] * v[0]
            if not det or _q(*u) == _q(*v):
                continue
            x, y = quad_ring._shortest(u, v)
            # (x, y) lies in the lattice: its coordinates in u, v are integers.
            assert (x * v[1] - y * v[0]) % det == 0 and (u[0] * y - u[1] * x) % det == 0
            bound = _q(*u)
            least = min(
                _q(a, b)
                for a in range(-isqrt(bound), isqrt(bound) + 1)
                for b in range(-isqrt(bound // 2), isqrt(bound // 2) + 1)
                if (a, b) != (0, 0)
                and (a * v[1] - b * v[0]) % det == 0
                and (u[0] * b - u[1] * a) % det == 0
            )
            assert _q(x, y) == least, (u, v)

    def test_proof_chain_holds(self):
        # Each step of split_prime's proof as an exact integer inequality.
        primes = [p for p in primes_below(10**4) if p % 8 == 7]
        for p in primes + _seeded_primes_7mod8(31, 60, 10**4, 10**60):
            x, y = quad_ring._shortest((sqrt2_mod_p(p), -1), (p, 0))
            assert 3 * _q(x, y) ** 2 <= 8 * p * p, p  # Hermite: Q(v) <= sqrt(8/3)*p
            assert abs(x * x - 2 * y * y) == p, p  # so v generates the ideal
            if x * x < 2 * y * y:
                x, y = quad_ring._times(x, y, 1, 1)
            x, y = abs(x), abs(y)
            assert 3 * y < 2 * x, p  # an orbit minimum
            x2, y2 = quad_ring._times(x, -y, 3, 2)
            assert 0 < y2 and 3 * y2 < 2 * x2, p  # the conjugate orbit's minimum


class TestSplitPrime:
    def test_huge_wrong_residue_message_is_bounded(self, default_digit_limit):
        with pytest.raises(InvalidResidue, match=f"^p must be 7 mod 8, got {BOUNDED} = 1 mod 8$"):
            split_prime(HUGE)

    def test_golden_values(self):
        assert (split_prime(7).X, split_prime(7).Y) == (3, 1)
        assert (split_prime(23).X, split_prime(23).Y) == (5, 1)
        assert (split_prime(31).X, split_prime(31).Y) == (7, 3)

    def test_wrong_residue(self):
        with pytest.raises(InvalidResidue):
            split_prime(17)
        with pytest.raises(InvalidResidue):
            split_prime(5)

    def test_against_enumeration_oracle(self):
        for p in primes_below(2000):
            if p % 8 != 7:
                continue
            s = split_prime(p)
            assert (s.X, s.Y) == brute_split(p)
            assert s.X * s.X - 2 * s.Y * s.Y == p
            assert s.X % 2 == 1 and s.Y % 2 == 1
            assert s.X * s.X > 2 * s.Y * s.Y

    def test_refuses_a_vector_off_the_orbit_minimum(self, monkeypatch):
        # Two steps up the orbit multiply the ratio of the embeddings by
        # (3 + 2*sqrt(2))**4, so after any sign fix it exceeds the bound
        # (3 + 2*sqrt(2))**2 that 3*Y < 2*X states.
        shortest = quad_ring._shortest
        monkeypatch.setattr(
            quad_ring, "_shortest", lambda u, v: quad_ring._times(*shortest(u, v), 17, 12)
        )
        for p in (7, 23, 31, 47, 71, 79, 103, 127):
            with pytest.raises(InternalInconsistency, match="is not an orbit minimum$"):
                split_prime(p)

    def test_solution_validation(self):
        with pytest.raises(Exception):
            SplitSolution(X=4, Y=1, p=14)  # even X
        with pytest.raises(Exception):
            SplitSolution(X=3, Y=1, p=5)  # wrong norm

    @pytest.mark.parametrize(
        "X,Y,message",
        [
            (HUGE, 1, rf"\({BOUNDED}, 1\) does not solve X\^2-2Y\^2=7"),
            (-HUGE, 1, rf"\(-{BOUNDED}, 1\) not positive"),
            (HUGE + 1, 1, rf"\({BOUNDED}, 1\) not both odd"),
            (1, HUGE, rf"\(1, {BOUNDED}\) not totally positive"),
        ],
        ids=["norm", "positive", "odd", "totally_positive"],
    )
    def test_huge_refusal_message_is_bounded(self, default_digit_limit, X, Y, message):
        # Each solves X**2 - 2*Y**2 = p but the first, whose p is 7.
        p = 7 if X == HUGE else X * X - 2 * Y * Y
        with pytest.raises(InternalInconsistency, match=f"^{message}$"):
            SplitSolution(X=X, Y=Y, p=p)


class TestUnitAdjust:
    def test_golden_values(self):
        s = split_prime(7)
        up = unit_adjust(s, 1)
        assert (up.X, up.Y) == (13, 9)
        assert unit_adjust(s, 3) is s
        down = unit_adjust(up, 3)
        assert (down.X, down.Y) == (3, 1)

    def test_preserves_norm_and_flips_residue(self):
        for p in primes_below(1000):
            if p % 8 != 7:
                continue
            s = split_prime(p)
            for target in (1, 3):
                t = unit_adjust(s, target)
                assert t.X % 4 == target
                assert t.X * t.X - 2 * t.Y * t.Y == p
                assert t.X % 2 == 1 and t.Y % 2 == 1

    def test_bad_target(self):
        with pytest.raises(ValueError):
            unit_adjust(split_prime(7), 2)

    def test_huge_target_message_is_bounded(self, default_digit_limit):
        with pytest.raises(ValueError, match=f"^target must be 1 or 3 mod 4, got {BOUNDED}$"):
            unit_adjust(split_prime(7), HUGE)


class TestFourSquares:
    def test_golden_decompositions(self):
        assert cohn_four_squares(split_prime(7)).pairs == (
            (1, 1),
            (1, 0),
            (1, 0),
            (1, 0),
        )
        s13 = unit_adjust(split_prime(7), 1)
        assert cohn_four_squares(s13).pairs == ((3, 2), (1, 1), (1, 1), (1, 1))

    def test_odd_sqrt2_coefficient_rejected(self):
        with pytest.raises(NoDecomposition):
            four_squares(QuadraticSqrt2(7, 1))

    def test_negative_target_rejected(self):
        with pytest.raises(NoDecomposition):
            four_squares(QuadraticSqrt2(-6, 2))
        with pytest.raises(NoDecomposition):
            four_squares(QuadraticSqrt2(1, 2))  # 1 - 2*sqrt2 < 0

    def test_reconstruction_exact(self):
        for p in primes_below(1500):
            if p % 8 != 7:
                continue
            for target in (1, 3):
                s = unit_adjust(split_prime(p), target)
                fs = cohn_four_squares(s)
                assert fs.total() == QuadraticSqrt2(2 * s.X, 2 * s.Y)

    @pytest.mark.parametrize(
        "x,y,message",
        [
            (HUGE, 1, rf"sqrt\(2\)-coefficient of QuadraticSqrt2\(x={BOUNDED}, y=1\) is odd; "
             "no four-squares decomposition"),
            (-HUGE, 0, rf"QuadraticSqrt2\(x=-{BOUNDED}, y=0\) is not totally nonnegative"),
            (HUGE, 0, rf"search exhausted for QuadraticSqrt2\(x={BOUNDED}, y=0\)"),
        ],
        ids=["odd_y", "negative", "exhausted"],
    )
    def test_huge_target_message_is_bounded(self, monkeypatch, default_digit_limit, x, y, message):
        # No search could finish on a target this size, so it finds nothing.
        monkeypatch.setattr(quad_ring, "_dfs_four", lambda *args: None)
        with pytest.raises(NoDecomposition, match=f"^{message}$"):
            four_squares(QuadraticSqrt2(x, y))

    def test_zero_target(self):
        fs = four_squares(QuadraticSqrt2(0, 0))
        assert fs.total() == QuadraticSqrt2(0, 0)

    def test_pair_count_validated(self):
        with pytest.raises(ValueError):
            FourSquares(((1, 1), (1, 0)))

    def test_matches_eager_reference(self):
        """The lazy search finds the eager sorted-list search's decomposition,
        or fails the same way: split targets of every p = 7 mod 8 below
        2*10**4, seeded primes up to 10**8, and every small (x, y)."""
        targets = [QuadraticSqrt2(x, y) for x in range(61) for y in range(-2 * x - 1, 2 * x + 2)]
        targets += _split_targets([p for p in primes_below(20_000) if p % 8 == 7])
        targets += _split_targets(_seeded_primes_7mod8(9, 15, 10**5, 10**8))
        _assert_matches_reference(targets)

    @pytest.mark.parametrize(
        "p,residue,pairs",
        [
            (1479100472057451249791, 1, ((439501, 241085), (867, 284), (37, -19), (7, -5))),
            (1479100472057451249791, 3, ((280603, 30171), (781, -52), (31, 36), (1, -34))),
            (1160000000000000000159, 1, ((377527, 192886), (837, 233), (23, -7), (3, 51))),
            (1160000000000000000159, 3, ((261123, 5829), (515, 96), (41, 0), (11, -28))),
        ],
    )
    def test_large_split_targets(self, p, residue, pairs):
        """p ~ 1e21 targets keep the decomposition that a walk over the
        whole last level and every alpha below isqrt(rx) found."""
        assert cohn_four_squares(unit_adjust(split_prime(p), residue)).pairs == pairs

    def test_square_root(self):
        """The last level's exact square root: the canonical root of every
        square, and None on every other small totally nonnegative element."""
        squares = set()
        for a in range(15):
            for b in range(0 if a == 0 else -10, 10):
                z = QuadraticSqrt2(a * a + 2 * b * b, 2 * a * b)
                squares.add((z.x, z.y))
                assert _square_root(z.x, z.y) == (a, b)
        for x in range(200):
            for y in range(-x, x + 1):
                if x * x >= 2 * y * y and (x, y) not in squares:
                    assert _square_root(x, y) is None, (x, y)

    @pytest.mark.extended
    def test_matches_eager_reference_to_1e9(self):
        _assert_matches_reference(_split_targets(_seeded_primes_7mod8(10, 30, 10**5, 10**9)))


def _seeded_primes_7mod8(seed, count, lo, hi):
    """``count`` primes = 7 mod 8, each the first one above a log-uniform
    draw from [lo, hi)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = int(lo * (hi / lo) ** rng.random())
        p += (7 - p) % 8
        while not is_probable_prime(p):
            p += 8
        out.append(p)
    return out


def _split_targets(primes):
    """2*(X + Y*sqrt(2)) for both unit adjustments of each prime's split."""
    out = []
    for p in primes:
        for residue in (1, 3):
            s = unit_adjust(split_prime(p), residue)
            out.append(QuadraticSqrt2(2 * s.X, 2 * s.Y))
    return out


def _assert_matches_reference(targets):
    """four_squares and four_squares_reference return the same pairs, or
    both raise NoDecomposition, on every target."""
    for target in targets:
        try:
            want = four_squares_reference(target)
        except NoDecomposition:
            with pytest.raises(NoDecomposition):
                four_squares(target)
        else:
            assert four_squares(target).pairs == want, target


class TestNormalizeDecomposition:
    def test_case1_one_odd_beta(self):
        fs = FourSquares(((1, 1), (1, 0), (1, 0), (1, 0)))
        ordered, label = normalize_decomposition(fs)
        assert ordered.pairs == ((1, 1), (1, 0), (1, 0), (1, 0))
        assert label is CaseLabel.CASE1_ONE_ODD_BETA

    def test_case1_three_odd_beta_reorders(self):
        fs = FourSquares(((3, 2), (1, 1), (1, 1), (1, 1)))
        ordered, label = normalize_decomposition(fs)
        assert ordered.pairs == ((1, 1), (1, 1), (1, 1), (3, 2))
        assert label is CaseLabel.CASE1_THREE_ODD_BETA

    def test_case2_congruent(self):
        # alternative decomposition of 6 + 2*sqrt(2): 1^2+1^2+(sqrt2)^2+(1+sqrt2)^2
        fs = FourSquares(((1, 1), (1, 0), (0, 1), (0, 0)))
        assert fs.total() == QuadraticSqrt2(6, 2)
        ordered, label = normalize_decomposition(fs)
        assert label is CaseLabel.CASE2_CONGRUENT_MOD4
        assert ordered.pairs == ((1, 1), (1, 0), (0, 1), (0, 0))

    def test_case2_incongruent(self):
        # decomposition of 26 + 18*sqrt(2) with even alphas 2 and 0
        fs = FourSquares(((3, 2), (1, 1), (2, 1), (0, 0)))
        assert fs.total() == QuadraticSqrt2(26, 18)
        ordered, label = normalize_decomposition(fs)
        assert label is CaseLabel.CASE2_INCONGRUENT_MOD4
        assert ordered.pairs == ((1, 1), (3, 2), (2, 1), (0, 0))

    def test_negation_canonicalization(self):
        fs = FourSquares(((-1, -1), (1, 0), (1, 0), (1, 0)))
        ordered, label = normalize_decomposition(fs)
        assert ordered.pairs[0] == (1, 1)
        assert label is CaseLabel.CASE1_ONE_ODD_BETA

    def test_layout_parities(self):
        for p in primes_below(1500):
            if p % 8 != 7:
                continue
            for target in (1, 3):
                s = unit_adjust(split_prime(p), target)
                ordered, label = normalize_decomposition(cohn_four_squares(s))
                (a1, b1), (a2, b2), (a3, b3), (a4, b4) = ordered.pairs
                assert a1 % 2 == 1 and a2 % 2 == 1 and (a3 - a4) % 2 == 0
                assert b1 % 2 == 1
                if label is CaseLabel.CASE1_ONE_ODD_BETA:
                    assert s.X % 4 == 3
                    assert (b2 % 2, b3 % 2, b4 % 2) == (0, 0, 0)
                elif label is CaseLabel.CASE1_THREE_ODD_BETA:
                    assert s.X % 4 == 1
                    assert (b2 % 2, b3 % 2, b4 % 2) == (1, 1, 0)

    @staticmethod
    def _reference_label(fs):
        """The label both give, or None where both raise NoValidArrangement."""
        try:
            want = normalize_reference(fs)
        except NoValidArrangement:
            with pytest.raises(NoValidArrangement):
                normalize_decomposition(fs)
            return None
        assert normalize_decomposition(fs) == want, fs.pairs
        return want[1]

    def test_matches_reference_small_entries(self):
        # Every decomposition with entries in [-1, 1]: the layout table gives
        # the reference's order and label, or raises where it raises.  The
        # only even alpha is 0, so a3 - a4 = 0 and case 2 is congruent.
        labels = {
            self._reference_label(FourSquares(tuple(zip(e[::2], e[1::2]))))
            for e in itertools.product((-1, 0, 1), repeat=8)
        }
        assert labels == set(CaseLabel) - {CaseLabel.CASE2_INCONGRUENT_MOD4} | {None}

    def test_matches_reference_random(self):
        rng = random.Random(16)
        labels = set()
        for _ in range(50_000):
            e = [rng.randint(-4, 4) for _ in range(8)]
            labels.add(self._reference_label(FourSquares(tuple(zip(e[::2], e[1::2])))))
        assert labels == set(CaseLabel) | {None}

    def test_huge_pairs_message_is_bounded(self, default_digit_limit):
        # The refusal prints the parity layout, not the pairs.
        with pytest.raises(
            NoValidArrangement,
            match=r"^no accepted parity layout: the sorted pairs have \(\(0, 0\)(, \(0, 0\)){3}\)$",
        ):
            normalize_decomposition(FourSquares(((2 * 10**5000, 0),) * 4))

    def test_no_arrangement_for_bad_parity_census(self):
        # all alphas even: cannot happen for odd Y, must be rejected
        with pytest.raises(NoValidArrangement):
            normalize_decomposition(FourSquares(((2, 1), (0, 1), (0, 0), (0, 0))))
