"""Acceptance suite: one test per criterion, each printing a PASS line with
its measurements (run with ``pytest tests/test_acceptance.py -v -s``).

Everything is exact integer arithmetic, so every comparison is equality
with zero tolerance; the stated runtime budgets are asserted as well.
"""

import json
import time

import pytest

from q16det import analysis, kernel
from q16det.analysis import exhaustive_scan, random_crosscheck, run_parity_audits
from q16det.classifier import Classification, classify_and_witness
from q16det.cli import CertificateDocument, main, verify_document
from q16det.exact_eval import QuadraticSqrt2, determinant_from_factored, factored_form
from q16det.group_algebra import GroupRingElement, direct_determinant
from q16det.primes import primes_below
from q16det.quad_ring import cohn_four_squares, split_prime
from q16det.witness import family_element, family_value, witness_odd_5mod8

from oracles import brute_split


def report(criterion: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({name}): PASS - {detail}")


def test_criterion_1_factorization_identity():
    """10^5 seeded random elements, coefficients in [-9, 9]: direct
    determinant equals A*B*C^2*D^2 exactly; <= 2 minutes."""
    t0 = time.perf_counter()
    rep = random_crosscheck(count=100_000, height=9, seed=42)
    elapsed = time.perf_counter() - t0
    assert rep.count == 100_000
    assert elapsed <= 120.0, f"took {elapsed:.1f}s > 120s"
    report(1, "factorization identity",
           f"100000 elements, 0 mismatches, {elapsed:.1f}s ({rep.lane} lane)")


def test_criterion_2_family_tables():
    """All six witness families produce their stated determinants exactly
    for every m in [-16, 16]."""
    families = (
        "even_1024_4m_minus_3",
        "even_1024_4m_minus_1",
        "even_2048_2m_minus_1",
        "even_4096_m",
        "odd_16m_plus_1",
        "odd_16m_minus_7",
    )
    checked = 0
    for family in families:
        for m in range(-16, 17):
            e = family_element(family, m)
            assert direct_determinant(e) == family_value(family, m), (family, m)
            checked += 1
    report(2, "family tables", f"{checked} (family, m) pairs exact")


def test_criterion_3_five_mod_8_pipeline():
    """For p in the 8 listed primes and m' in [-8, 8], both families give
    verified certificates with the stated (A, B, C, D); <= 1 minute."""
    t0 = time.perf_counter()
    primes = (7, 23, 31, 47, 71, 79, 103, 127)
    built = 0
    for p in primes:
        for mp in range(-8, 9):
            for m, quad in (
                (16 * mp - 3, (3 - 16 * mp, -1, 1, p)),
                (5 - 16 * mp, (5 - 16 * mp, 1, -1, p)),
            ):
                cert = witness_odd_5mod8(m * p * p, p)
                assert cert.verified and cert.n == m * p * p
                ff = cert.factored
                assert (ff.A, ff.B, ff.C, ff.D) == quad, (p, mp, m)
                built += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"took {elapsed:.1f}s > 60s"
    report(3, "5 mod 8 pipeline",
           f"{built} certificates, quadruples exact, {elapsed:.1f}s")


def test_criterion_4_binary_scan():
    """Support {0,1}: 65536 elements, zero residue-law violations,
    <= 5 seconds."""
    t0 = time.perf_counter()
    rep = exhaustive_scan((0, 1))
    elapsed = time.perf_counter() - t0
    assert rep.total == 65536
    assert rep.violations == []
    assert rep.odd_mod8[3] == 0 and rep.odd_mod8[7] == 0
    assert rep.even == rep.even_mult_1024
    assert elapsed <= 5.0, f"took {elapsed:.1f}s > 5s"
    report(4, "exhaustive scan {0,1}",
           f"65536 elements, 0 violations, {elapsed:.2f}s ({rep.lane} lane)")


@pytest.mark.extended
def test_criterion_4_extended_ternary_scan():
    """Optional: support {-1,0,1}, 43 046 721 elements with 8 workers,
    zero violations, <= 30 minutes."""
    t0 = time.perf_counter()
    rep = exhaustive_scan((-1, 0, 1), workers=8)
    elapsed = time.perf_counter() - t0
    assert rep.total == 3**16
    assert rep.violations == []
    assert rep.odd_mod8[3] == 0 and rep.odd_mod8[7] == 0
    assert rep.even == rep.even_mult_1024
    assert elapsed <= 1800.0, f"took {elapsed:.1f}s > 30min"
    report(4, "extended scan {-1,0,1}",
           f"{rep.total} elements, 0 violations, "
           f"{rep.five_mod8_values} distinct 5-mod-8 values all accepted, "
           f"{elapsed:.1f}s")


def test_criterion_5_classifier_witness_round_trip(monkeypatch):
    """|n| <= 20000: every Achievable n yields a verified certificate; no
    NotAchievable n is ever produced by the scans."""
    achieved = set()
    # A sample wide enough to hold every value of the scan.
    monkeypatch.setattr(analysis, "_SAMPLE_ABS_LIMIT", 1 << 62)
    monkeypatch.setattr(analysis, "_SAMPLE_LIMIT", 1 << 30)
    rep = exhaustive_scan((0, 1))
    achieved.update(rep.sample)

    certificates = 0
    not_achievable = 0
    for n in range(-20_000, 20_001):
        result = classify_and_witness(n)
        if isinstance(result, Classification):
            not_achievable += 1
            assert n not in achieved, f"{n} refused but scanned"
        else:
            assert result.verified and result.n == n
            certificates += 1
    assert certificates + not_achievable == 40_001
    report(5, "round trip",
           f"{certificates} verified certificates, {not_achievable} refusals, "
           f"none of the {len(achieved)} scanned values refused")


def test_criterion_6_parity_audit():
    """10^4 seeded random normalized pairs satisfy all the parity and
    residue assertions; zero failures."""
    rep = run_parity_audits(count=10_000, seed=1, height=9)
    assert rep.audited == 10_000
    assert rep.failures == []
    report(6, "parity audit",
           f"10000 normalized pairs, 0 failures "
           f"(skipped {rep.skipped} outside the residue class), "
           f"{rep.elapsed_s:.1f}s")


def test_criterion_7_quadratic_toolkit():
    """All primes p = 7 mod 8 below 10^4: split_prime matches the
    enumeration oracle exactly and cohn_four_squares reconstructs
    2*(X + Y*sqrt(2))."""
    count = 0
    for p in primes_below(10_000):
        if p % 8 != 7:
            continue
        s = split_prime(p)
        assert (s.X, s.Y) == brute_split(p)
        assert s.X * s.X - 2 * s.Y * s.Y == p
        assert s.X % 2 == 1 and s.Y % 2 == 1
        assert s.element().is_totally_positive()
        fs = cohn_four_squares(s)
        assert fs.total() == QuadraticSqrt2(2 * s.X, 2 * s.Y)
        count += 1
    report(7, "quadratic toolkit", f"{count} primes split and decomposed exactly")


def test_criterion_8_golden_cli_certificates(capsys, tmp_path):
    """witness 17 / 245 / 637 / -7 / -3072 re-verify from the serialized
    document alone."""
    targets = (17, 245, 637, -7, -3072)
    for n in targets:
        rc = main(["witness", str(n), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        raw = json.loads(out)
        path = tmp_path / f"cert_{n}.json"
        path.write_text(json.dumps(raw))
        # reload from disk: nothing but the document is used
        doc = CertificateDocument.from_json_dict(json.loads(path.read_text()))
        assert doc.n == n and doc.verified
        assert verify_document(doc)
        e = GroupRingElement(doc.f, doc.g)
        assert direct_determinant(e) == n
        assert determinant_from_factored(factored_form(e)) == n
    with capsys.disabled():
        report(8, "golden CLI certificates",
               f"{len(targets)} documents re-verified from serialized form")
