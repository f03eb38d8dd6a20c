"""The kernel and the core: the core's imports from the library, the lane
names and patch points perfbench relies on, exactness for large
coefficients, the reference elimination against the Fraction oracle on
every branch it takes, the fixed-width 8x8 elimination against both and
on pivot branches forced at each pass, group_det's split at the central
element X**4 against the whole literal 16x16, the circulant oracle
against group_det on the class pairs of direct scans, the half-table scan
against the per-element reference, and the q-classes a direct scan
groups half-vectors by."""

import ast
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from q16det import certificate, cli, core, kernel
from q16det.core import DET_INDEX, INVERSE, MUL_TABLE, inv, mul
from q16det.analysis import exhaustive_scan
from q16det.errors import InternalInconsistency
from q16det.group_algebra import GroupRingElement, direct_determinant

import oracles
from oracles import (
    bareiss_reference,
    circulant_det,
    circulant_det_reference,
    circulant_q,
    determinant_matrix,
    direct_agrees_reference,
    fraction_det,
    scan_range_reference,
)


def test_cayley_tables_consistent():
    for i in range(16):
        assert INVERSE[i] == inv(i)
        for j in range(16):
            assert MUL_TABLE[i][j] == mul(i, j)
            assert DET_INDEX[i][j] == mul(i, inv(j))


def _library_imports(source):
    """The q16det modules that the Python ``source`` of a q16det module
    imports, by their dotted names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
            found.update("q16det." + (node.module or alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
    return {name for name in found if name.split(".")[0] == "q16det"}


def test_core_imports_only_errors_from_the_library():
    # Parsed: what the source names.  tests/test_package.py checks what a
    # fresh interpreter loads.
    assert _library_imports(Path(core.__file__).read_text()) == {"q16det.errors"}
    probe = "from . import kernel\nfrom .witness import x\nimport q16det.cli\nfrom q16det import y"
    assert _library_imports(probe) == {"q16det.kernel", "q16det.witness", "q16det.cli", "q16det"}


def test_certificate_imports_only_the_checker_closure():
    # Parsed, as for core; tests/test_package.py checks what a fresh
    # interpreter loads, argparse excluded.
    source = Path(certificate.__file__).read_text()
    assert _library_imports(source) == {
        "q16det.__version__", "q16det.core", "q16det.errors", "q16det.group_algebra"
    }


def test_cli_takes_the_certificate_names_from_certificate():
    shared = ("CertificateDocument", "certificate_document", "verify_document", "_decimal", "_DECIMAL")
    for name in shared:
        assert getattr(cli, name) is getattr(certificate, name), name
    dropped = ("_FORMAT", "_REQUIRED_FIELDS", "_jsonable", "NamedTuple", "re", "GroupRingElement")
    for name in dropped:
        assert not hasattr(cli, name), name


def test_kernel_takes_the_determinant_from_core():
    assert kernel.group_det is core.group_det
    assert kernel.factored_terms is core.factored_terms
    assert kernel._half_terms is core._half_terms
    assert not hasattr(kernel, "_bareiss8") and not hasattr(kernel, "_pivot")
    # _bareiss8 is the one elimination; the circulant form lives in tests/.
    for name in ("_bareiss", "_q_parts", "_reflection_det", "direct_mismatches"):
        assert not hasattr(kernel, name) and not hasattr(core, name), name


def test_active_lane_reported(monkeypatch):
    # perfbench reads these names and wraps the entry points on this module.
    assert kernel.lanes() == {"pure": kernel}
    assert kernel.ACTIVE_LANE == "pure"
    calls = []
    for name in ("group_det", "scan_range"):
        real = getattr(kernel, name)

        def traced(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernel, name, traced)
    assert direct_determinant(GroupRingElement((1,) + (0,) * 7, (0,) * 8)) == 1
    assert exhaustive_scan((1,)).total == 1
    assert calls == ["group_det", "scan_range"]


def _oracle_det(a, b):
    return fraction_det(determinant_matrix(GroupRingElement.from_coeffs(list(a) + list(b))))


def _recorded_sizes(monkeypatch, module, name):
    """The sizes of the matrices ``<module>.<name>`` is called on, in order."""
    real = getattr(module, name)
    sizes = []

    def recorded(m, *args):
        sizes.append(len(m))
        return real(m, *args)

    monkeypatch.setattr(module, name, recorded)
    return sizes


@pytest.fixture
def bareiss_sizes(monkeypatch):
    """The sizes of the matrices ``oracles.bareiss_reference`` is called on,
    in order."""
    return _recorded_sizes(monkeypatch, oracles, "bareiss_reference")


@pytest.fixture
def bareiss8_sizes(monkeypatch):
    """The sizes of the matrices ``core._bareiss8`` is called on, in order."""
    return _recorded_sizes(monkeypatch, core, "_bareiss8")


#: The central element z = X**4 and one element of each coset {g, z*g}.
Z = 4
COSET_REPS = [g for g in range(16) if g < MUL_TABLE[Z][g]]


def _checked_group_det(a, b, sizes):
    """kernel.group_det(a, b), checked against one elimination of the whole
    literal 16x16; ``sizes``, the bareiss8_sizes fixture, must show a single
    8x8 when the block A + B of the z-split is singular and two otherwise."""
    m = determinant_matrix(GroupRingElement(a, b))
    plus = [[m[g][h] + m[g][MUL_TABLE[Z][h]] for h in COSET_REPS] for g in COSET_REPS]
    whole = bareiss_reference(m)
    sizes.clear()
    det = kernel.group_det(a, b)
    assert det == whole
    assert sizes == ([8] if bareiss_reference(plus) == 0 else [8, 8])
    return det


def test_central_pairs_reject_swapped_entries():
    # Each entry's twin under (g, h) -> (zg, zh) holds the same index, so
    # swapping any two entries with different indices breaks the block form.
    rng = random.Random(16)
    cells = list(product(range(16), repeat=2))
    tried = 0
    while tried < 40:
        (g1, h1), (g2, h2) = rng.sample(cells, 2)
        if DET_INDEX[g1][h1] == DET_INDEX[g2][h2]:
            continue
        index = [list(row) for row in DET_INDEX]
        index[g1][h1], index[g2][h2] = index[g2][h2], index[g1][h1]
        with pytest.raises(InternalInconsistency, match=r"not \[\[A, B\], \[B, A\]\]"):
            core._central_rows(index)
        tried += 1


@pytest.mark.parametrize("cell", [(0, 0), (2, 9), (9, 3), (11, 11)])
def test_central_rows_reject_pairs_outside_a_coset(cell):
    # Both cells of the twin pair get the same wrong index, so the block
    # form holds, but the pair is no longer {g, g + 4} and no central sum
    # builds the entry.
    g, h = cell
    index = [list(row) for row in DET_INDEX]
    wrong = (index[g][h] + 1) % 16
    index[g][h] = index[g + 4][h + 4] = wrong
    with pytest.raises(InternalInconsistency, match=r"is not \{g, g \+ 4\} for a coset"):
        core._central_rows(index)


def test_large_coefficients_exact():
    rng = random.Random(40)
    elements = [([10**40] * 8, [1] * 8)]
    for _ in range(2):
        c = [rng.randint(-10**40, 10**40) for _ in range(16)]
        elements.append((c[:8], c[8:]))
    dets = []
    for a, b in elements:
        det = kernel.group_det(a, b)
        assert det == _oracle_det(a, b)
        A, B, C, X, Y = kernel.factored_terms(a, b)
        assert A * B * C * C * (X * X - 2 * Y * Y) ** 2 == det
        dets.append(det)
    assert all(dets[1:])


def _random_matrix(rng, rows, cols, height=9):
    return [[rng.randint(-height, height) for _ in range(cols)] for _ in range(rows)]


def _bareiss_cases(n):
    """Seeded n x n matrices by the branch of a two-step elimination
    (``core._bareiss8`` at n = 8) they take; the names in _SINGULAR_CASES
    have determinant 0."""
    rng = random.Random(1000 + n)
    cases = {
        # odd n: the determinant is read from m[n-1][n-1] after the last pass
        "dense": _random_matrix(rng, n, n),
        "huge": _random_matrix(rng, n, n, 10**40),
    }
    low = rng.randrange(n)
    left, right = _random_matrix(rng, n, low), _random_matrix(rng, low, n)
    cases["low rank"] = [
        [sum(row[t] * right[t][j] for t in range(low)) for j in range(n)] for row in left
    ]
    if n >= 2:
        m = _random_matrix(rng, n, n)
        m[0][0], m[0][1], m[1][0] = 0, rng.choice((-5, 3)), rng.choice((-2, 7))
        cases["zero pivot, nonsingular 2x2 block"] = m
        m = _random_matrix(rng, n, n)
        m[0][0] = m[0][1] = 0
        cases["row 0 zero in columns 0 and 1"] = m
        m = _random_matrix(rng, n, n)
        m[0][0] = rng.choice((-3, 5))
        for row in m:
            row[1] = -2 * row[0]
        cases["proportional columns 0 and 1"] = m
        m = _random_matrix(rng, n, n)
        column = rng.randrange(n)
        for row in m:
            row[column] = 0
        cases["zero column"] = m
    if n >= 3:
        m = _random_matrix(rng, n, n)
        m[0][0] = rng.choice((-4, 6))
        m[1][0], m[1][1] = 2 * m[0][0], 2 * m[0][1]
        cases["row swap"] = m
        m = _random_matrix(rng, n, n)
        m[-1] = [x + y for x, y in zip(m[0], m[1])]
        cases["dependent row"] = m
    return cases


_SINGULAR_CASES = (
    "low rank",
    "dependent row",
    "zero column",
    "proportional columns 0 and 1",
)


@pytest.mark.parametrize("n", range(1, 17))
def test_bareiss_matches_fraction_det(n):
    for name, m in _bareiss_cases(n).items():
        want = fraction_det(m)
        assert bareiss_reference([row[:] for row in m]) == want, name
        if name in _SINGULAR_CASES:
            assert want == 0, name
        elif n >= 3:
            assert want != 0, name


def _forced_pivot_cases(height):
    """Seeded 8x8 matrices whose elimination takes a pivot branch at a
    chosen pass, keyed by (branch, k) for the pass on columns k and k + 1;
    every entry has at most ``height`` times a small factor.

    * ("d2 = 0", k): row k + 1 is row k plus row 0 on the first k + 2
      columns, so the leading (k + 2)-minor, and with it the pivot block's
      d2, is 0; a later row must be swapped in.
    * ("row k zero", k): row k is a combination of the rows above it on
      the first k + 2 columns, so after the earlier passes it is zero in
      both pivot columns and a later row must take its place.
    * ("columns dependent", k): column k + 1 is column k plus column 0, so
      no row helps and the determinant is 0.
    * ("anchor in column k + 1", k): row k is as in "row k zero", and row
      k + 1 a combination of the rows above it on the first k + 1
      columns, so the anchor is row k + 1, below the pass's first row and
      nonzero only in column k + 1; a later row is its partner.

    At k = 6, the last pass, every branch means a determinant of 0.
    """
    rng = random.Random(808 + height)
    cases = {}
    for k in (0, 2, 4):
        m = _random_matrix(rng, 8, 8, height)
        m[k + 1][: k + 2] = [x + y for x, y in zip(m[k][: k + 2], m[0][: k + 2])]
        cases["d2 = 0", k] = m
    for k in (0, 2, 4, 6):
        m = _random_matrix(rng, 8, 8, height)
        if k:
            m[k][: k + 2] = [x - 2 * y for x, y in zip(m[0][: k + 2], m[k - 1][: k + 2])]
        else:
            m[0][:2] = [0, 0]
        cases["row k zero", k] = m
        m = _random_matrix(rng, 8, 8, height)
        for row in m:
            row[k + 1] = row[k] + row[0]
        cases["columns dependent", k] = m
    for k in (0, 2, 4):
        m = _random_matrix(rng, 8, 8, height)
        if k:
            m[k][: k + 2] = [x - 2 * y for x, y in zip(m[0][: k + 2], m[k - 1][: k + 2])]
            m[k + 1][: k + 1] = [x + y for x, y in zip(m[0][: k + 1], m[k - 1][: k + 1])]
        else:
            m[0][:2], m[1][0] = [0, 0], 0
        cases["anchor in column k + 1", k] = m
    return cases


class TestBareiss8:
    def test_matches_bareiss_on_every_branch(self):
        for name, m in _bareiss_cases(8).items():
            want = fraction_det(m)
            assert bareiss_reference([row[:] for row in m]) == want, name
            assert core._bareiss8([tuple(row) for row in m]) == want, name

    @pytest.mark.parametrize("height", [9, 10**40])
    def test_forced_pivot_branches(self, monkeypatch, height):
        # _pivot sees the rows left at the pass it is called for, 8 - k,
        # and a singular pivot block ends the elimination there.
        pivots = _recorded_sizes(monkeypatch, core, "_pivot")
        for (branch, k), m in _forced_pivot_cases(height).items():
            want = fraction_det(m)
            assert bareiss_reference([row[:] for row in m]) == want, (branch, k)
            pivots.clear()
            assert core._bareiss8([tuple(row) for row in m]) == want, (branch, k)
            assert pivots == ([] if k == 6 else [8 - k]), (branch, k)
            assert (want == 0) == (k == 6 or branch == "columns dependent"), (branch, k)


class TestCirculantBridge:
    @pytest.mark.parametrize("height", [1, 9, 10**6, 10**30])
    def test_matches_group_det_and_oracle(self, height, bareiss8_sizes):
        rng = random.Random(height)
        for k in range(300):
            a = [rng.randint(-height, height) for _ in range(8)]
            b = [rng.randint(-height, height) for _ in range(8)]
            det = circulant_det(a, b)
            assert det == _checked_group_det(a, b, bareiss8_sizes)
            if k < 30:
                assert det == _oracle_det(a, b)

    @pytest.mark.parametrize("support", [(0, 1), (-1, 0)])
    def test_sparse_singular_heavy_elements(self, support, bareiss8_sizes):
        rng = random.Random(sum(support))
        dets = []
        group_det_branches = Counter()
        for k in range(500):
            c = [rng.choice(support) for _ in range(16)]
            det = circulant_det(c[:8], c[8:])
            assert det == _checked_group_det(c[:8], c[8:], bareiss8_sizes)
            group_det_branches[len(bareiss8_sizes)] += 1
            if k < 50:
                assert det == _oracle_det(c[:8], c[8:])
            dets.append(det)
        # about 46% of these elements are singular; group_det stops after
        # the A + B block on all of them but one, which needs both blocks
        assert 100 < dets.count(0) < 400
        assert group_det_branches == {1: dets.count(0) - 1, 2: 501 - dets.count(0)}

    @pytest.mark.parametrize("height", [1, 9, 10**6, 10**30])
    def test_blocks_match_8x8_reference(self, height):
        rng = random.Random(43 + height)
        for _ in range(300):
            a = [rng.randint(-height, height) for _ in range(8)]
            b = [rng.randint(-height, height) for _ in range(8)]
            assert circulant_det(a, b) == circulant_det_reference(a, b)

    @pytest.mark.parametrize("values", [(0, 1), (-2, 3)])
    def test_blocks_match_8x8_reference_on_every_class_pair(self, bareiss_sizes, values):
        # An a-half's q-part is its autocorrelation r[k], a b-half's is
        # -r[k + 4]: both sides have the same classes, the 29 x 29 = 841
        # pairs a direct scan evaluates once each.  221 of the pairs end
        # at a singular 3x3 block, the rest eliminate the 5x5 as well.
        reps = {tuple(circulant_q(h, ZERO_HALF)): h for h in product(values, repeat=8)}
        assert len(reps) == 29
        branches = Counter()
        for a in reps.values():
            for b in reps.values():
                want = circulant_det_reference(a, b)
                bareiss_sizes.clear()
                assert circulant_det(a, b) == want
                branches[tuple(bareiss_sizes)] += 1
        assert branches == {(3,): 221, (3, 5): 620}

    @pytest.mark.parametrize("values", [(-1, 0, 1), (-2, -1, 0, 1, 2)])
    def test_blocks_match_8x8_reference_on_sampled_pairs(self, values):
        rng = random.Random(len(values))
        singular = 0
        for _ in range(2000):
            a = [rng.choice(values) for _ in range(8)]
            b = [rng.choice(values) for _ in range(8)]
            det = circulant_det(a, b)
            assert det == circulant_det_reference(a, b)
            singular += det == 0
        assert 100 < singular < 1900

    def test_q_at_plus_and_minus_one(self):
        rng = random.Random(5)
        for _ in range(300):
            a = [rng.randint(-9, 9) for _ in range(8)]
            b = [rng.randint(-9, 9) for _ in range(8)]
            q = circulant_q(a, b)
            A, B, _, _, _ = kernel.factored_terms(a, b)
            assert sum(q) == A
            assert sum(q[0::2]) - sum(q[1::2]) == B


def _scan_windows():
    """(support, start, stop) windows: the one-value space, runs of whole
    b-rows, ranges crossing a b-row boundary, ranges ending at base**16,
    one-element ranges, ranges longer than a b-row, and seeded random
    ranges."""
    rng = random.Random(2024)
    supports = [(0, 1), (-2, 3), (-1, 10**6), (-1, 0, 1), (-10**6, -3, 0, 2, 10**6)]
    windows = [((7,), 0, 1), ((-1, 0), 0, 2**12)]
    for values in supports:
        half = len(values) ** 8
        end = len(values) ** 16
        windows += [
            (values, half - 150, half + 150),
            (values, 3 * half - 7, 3 * half + 1),
            (values, end - 300, end),
            (values, end - 1, end),
            (values, half, half + 1),
        ]
        lo = rng.randrange(end - 400)
        windows.append((values, lo, lo + rng.randrange(1, 400)))
        if len(values) == 2:  # longer than a b-row: the whole a-table
            lo = rng.randrange(2**16 - 1000)
            windows += [(values, 200, 900), (values, lo, lo + 1000)]
    return windows


def _scan_from_row_starts(values, start, stop):
    """``kernel.scan_range``'s result on any window, from calls that each
    start on a b-row: the window's part in one b-row is the difference of
    two prefixes of that row.  A part nearer the row's end is taken from
    the reversed support, whose element number i is element
    base**16 - 1 - i of ``values``, so that both prefixes stay short."""
    half = len(values) ** 8
    end = half * half
    count = 0
    hist = Counter()
    for row in range(start - start % half, stop, half):
        vals, lo, hi = values, max(start, row), min(stop, row + half)
        if lo - row > row + half - hi:
            vals, row, lo, hi = values[::-1], end - half - row, end - hi, end - lo
        whole, head = kernel.scan_range(vals, row, hi), kernel.scan_range(vals, row, lo)
        count += whole["count"] - head["count"]
        hist += whole["values"] - head["values"]
    return {"count": count, "values": hist}


class TestScanHalfTables:
    @pytest.mark.parametrize("direct", [False, True])
    @pytest.mark.parametrize("values,start,stop", _scan_windows())
    def test_matches_reference(self, values, start, stop, direct):
        want = scan_range_reference(values, start, stop)
        got = _scan_from_row_starts(values, start, stop)
        assert got == want
        assert got["count"] == stop - start
        if start % len(values) ** 8 == 0:
            assert kernel.scan_range(values, start, stop) == want
        if direct:
            # The check a direct scan makes once per class pair holds on
            # each element of the window, large coefficients included.
            assert direct_agrees_reference(values, start, stop)

    def test_empty_range(self):
        for start in (256, 2**16):  # the end of the space is a b-row too
            got = kernel.scan_range((0, 1), start, start)
            assert got == scan_range_reference((0, 1), start, start)
            assert got["count"] == 0 and not got["values"]

    @pytest.mark.parametrize("values,start", [((0, 1), 1), ((0, 1), 300), ((-1, 0, 1), 6560)])
    def test_misaligned_start_rejected(self, values, start):
        with pytest.raises(ValueError, match="b-row"):
            kernel.scan_range(values, start, start + 10)

    @pytest.mark.parametrize(
        "values,start,stop",
        [((0, 1), 0, 2**16 + 5), ((0, 1), 256, 100), ((0, 1), 2**16, 2**16 + 1), ((-1, 0, 1), 0, -1)],
    )
    def test_range_outside_space_rejected(self, values, start, stop):
        # Such ranges once reported a count of stop - start that the
        # histogram did not hold: 65,541 for 65,536 elements, or -156.
        with pytest.raises(ValueError, match="not within"):
            kernel.scan_range(values, start, stop)

    @pytest.mark.parametrize(
        "start,stop,message",
        [
            (5**7000, 5**7000, r"start {} does not begin a b-row of 256 elements"),
            (0, 5**7000, r"range \[0, {}\) is not within \[0, 65536\]"),
        ],
        ids=["start", "stop"],
    )
    def test_huge_range_message_is_bounded(self, default_digit_limit, start, stop, message):
        # 5**7000 has 4,893 digits, past the interpreter's default limit.
        bounded = r"\d{20}\.\.\.\(4893 digits\)"
        with pytest.raises(ValueError, match="^" + message.format(bounded) + "$"):
            kernel.scan_range((0, 1), start, stop)

    @pytest.mark.parametrize("values", [(0, 1), (-1, 10**6)])
    def test_unordered_pairs_match_reference(self, monkeypatch, values):
        # The complete b-rows of each range hold both orders of their
        # pairs of halves, which scan_range evaluates once and counts
        # twice; blocks of 5 a-rows split those pairs across blocks.
        half = len(values) ** 8
        ranges = [
            (0, half * half),
            (0, half * half // 2),
            (half * half // 2, half * half),
            (3 * half, 40 * half + 77),
        ]
        wants = [scan_range_reference(values, start, stop) for start, stop in ranges]
        for block in (kernel._A_BLOCK, 5):
            monkeypatch.setattr(kernel, "_A_BLOCK", block)
            for (start, stop), want in zip(ranges, wants):
                assert kernel.scan_range(values, start, stop) == want, (block, start, stop)

    @pytest.mark.parametrize("values", [(0, 1), (-1, 10**6), (-1, 0, 1)])
    def test_a_blocks_match_reference(self, monkeypatch, values):
        # With blocks of 5 a-rows every window spans several blocks; the
        # last b-row of (2h, 3h + 3) ends before the second block starts.
        monkeypatch.setattr(kernel, "_A_BLOCK", 5)
        half = len(values) ** 8
        end = half * half
        for start, stop in [
            (0, 7),
            (half, 3 * half),
            (2 * half, 3 * half + 3),
            (end - 2 * half, end - half + 12),
            (end - half, end),
        ]:
            got = kernel.scan_range(values, start, stop)
            assert got == scan_range_reference(values, start, stop), (start, stop)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_wide_b_row_memory_bounded(self):
        # One b-row of a five-value support is 390,625 elements; holding
        # its whole a-table and row of determinants peaked at 140 MB.  The
        # child's VmHWM is its own peak RSS: its ru_maxrss would include
        # this process's, which it keeps across exec.
        src = str(Path(kernel.__file__).parents[1])
        script = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from q16det import kernel\n"
            "got = kernel.scan_range((-10**6, -3, 0, 2, 10**6), 0, 5**8)\n"
            "assert got['count'] == sum(got['values'].values()) == 5**8\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert int(out.stdout) <= 40 * 1024, out.stdout


ZERO_HALF = (0,) * 8


class TestHalfAdditivity:
    @pytest.mark.parametrize("height", [1, 9, 10**6])
    def test_factored_terms_split(self, height):
        rng = random.Random(31 * height)
        for _ in range(300):
            a = [rng.randint(-height, height) for _ in range(8)]
            b = [rng.randint(-height, height) for _ in range(8)]
            whole = kernel.factored_terms(a, b)
            fa = kernel.factored_terms(a, ZERO_HALF)
            gb = kernel.factored_terms(ZERO_HALF, b)
            assert whole == tuple(x + y for x, y in zip(fa, gb))
            # The half terms of a g-side half enter A, B and C negated.
            P, Q, R, X, Y = kernel._half_terms(b)
            assert fa == kernel._half_terms(a) and gb == (-P, -Q, -R, X, Y)

    @pytest.mark.parametrize("height", [1, 9, 10**6])
    def test_swapping_halves(self, height):
        # The identity scan_range's unordered-pair count rests on:
        # det(a, b) = det(b, a), by A*B*C**2*D**2 and by the 16x16.
        rng = random.Random(43 * height)
        for k in range(200):
            a = [rng.randint(-height, height) for _ in range(8)]
            b = [rng.randint(-height, height) for _ in range(8)]
            A, B, C, X, Y = kernel.factored_terms(a, b)
            assert kernel.factored_terms(b, a) == (-A, -B, -C, X, Y)
            if k < 20:
                assert kernel.group_det(a, b) == kernel.group_det(b, a)

    @pytest.mark.parametrize("height", [1, 9, 10**6])
    def test_circulant_q_split(self, height):
        rng = random.Random(37 * height)
        for _ in range(300):
            a = [rng.randint(-height, height) for _ in range(8)]
            b = [rng.randint(-height, height) for _ in range(8)]
            qa = circulant_q(a, ZERO_HALF)
            qb = circulant_q(ZERO_HALF, b)
            assert circulant_q(a, b) == [x + y for x, y in zip(qa, qb)]

    def test_circulant_det_depends_only_on_q(self):
        # Rotating or reversing a half keeps its autocorrelation, hence q.
        rng = random.Random(41)
        for _ in range(50):
            a = [rng.randint(-9, 9) for _ in range(8)]
            b = [rng.randint(-9, 9) for _ in range(8)]
            a2 = (a[3:] + a[:3])[::-1]
            b2 = b[5:] + b[:5]
            assert circulant_q(a2, b2) == circulant_q(a, b)
            assert circulant_det(a2, b2) == circulant_det(a, b)


class TestClassPartition:
    @pytest.mark.parametrize(
        "values,classes", [((0, 1), 29), ((-1, 0, 1), 245), ((0, 2), 29), ((-2, 3), 29)]
    )
    def test_term_rows_and_q_classes_coincide(self, values, classes):
        # q is palindromic, so it has 5 free coefficients, and (A, B, C, X, Y)
        # is an invertible linear map of them: equal rows iff equal q parts.
        for side in (lambda h: (h, ZERO_HALF), lambda h: (ZERO_HALF, h)):
            pairs = {
                (kernel.factored_terms(*side(h)), tuple(circulant_q(*side(h))))
                for h in product(values, repeat=8)
            }
            assert len({row for row, _ in pairs}) == len(pairs) == classes
            assert len({q for _, q in pairs}) == len(pairs)
