"""Golden CLI outputs: what each command prints, pinned by digest.

Each row holds an argv, the exit code, and the sha256 of stdout and of
stderr, both untimed: ``elapsed_s`` is dropped from every JSON line and the
``(... 0.02s)`` figure of a human line loses its number.  A row may also
pin files written under ``--output-dir``: the argv names the directory
``OUT``, and each (file name, sha256) pair pins one file there.
``test_cli.py::TestGoldenOutputs`` replays every row in process through
``cli.main``.  A change that must keep the output byte-identical keeps
every row; a change that means to alter an output rewrites its row and
says so.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from q16det.cli import main

OUT = "{out}"

# 10**4300 + 1: 4,301 digits, one past the interpreter's default limit.
HUGE_ODD = "1" + "0" * 4299 + "1"

# 5 mod 8 targets m*p**2 with p from 7 up to about 10**9: 245 = 5*7**2,
# -147 = -3*7**2, 2645 = 5*23**2, 13*100103**2 and 13*1000000007**2.
FIVE_MOD_8 = ("245", "-147", "2645", "130267937917", "13000000182000000637")
TARGETS = ("0", "17", "512", "1024", "-7", *FIVE_MOD_8)
# 5*7**2*q1*q2 with the 23-digit q1*q2 = 448132953127 * 172570607879, the
# primes after two draws from random.Random(33) in [10**11, 10**12).
SMALL_P_LARGE_COFACTOR = "18946971152275761952470085"
# 3*p**3 with p = 1000000000039, the first prime = 7 mod 8 above 10**12.
THREE_P_CUBED = "3000000000351000000013689000000177957"
# A 20-digit 5 mod 8 semiprime, 2553350521 * 4970511061: the first draw of
# random.Random(35) by perfbench's semiprime shape whose smaller prime q has
# q - 1 = 2**3*3*5*7*23*283*467, powersmooth to 10**3, and whose larger
# prime r has r - 1 divisible by the prime 82841851.
SMOOTH_P_MINUS_1 = "12691457007240612781"
# 5 mod 8 targets whose cofactor the trial bounds settle: the 12-digit
# semiprime 500083 * 1000039, the first primes = 3 mod 8 above 5 * 10**5 and
# = 7 mod 8 above 10**6; the 14-digit 3000017 * 10000141, the first primes
# = 1 mod 8 above 3 * 10**6 and = 5 mod 8 above 10**7; and 5 * 10007**2, with
# 10007 the first prime = 7 mod 8 above 10**4.
BOUND_SETTLED = ("500102503237", "30000593002397", "500700245")
WITNESSED = ("17", "-7", "1024", "-3072", "637", "1029", *FIVE_MOD_8)
EVEN_FAMILY = "1,1,1,1,1,1,1,1,1,0,1,1,1,0,0,0"
EMPTY = hashlib.sha256(b"").hexdigest()
SCAN_JSON = ("scan", "--support", "0,1", "--json")
SCAN_TWO_WORKERS = ("scan", "--support", "0,1", "--workers", "2", "--json")
# Outside the grammar -?[0-9]+, and not a negative number to argparse.
BAD_MINUS = "-1_001"


class Golden(NamedTuple):
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str
    files: tuple[tuple[str, str], ...] = ()


def untimed(text: str) -> str:
    """``text`` without its timing: no ``elapsed_s`` in a JSON line, and no
    seconds figure before a human line's closing parenthesis."""
    lines = []
    for line in text.splitlines(keepends=True):
        if line.startswith("{") and '"elapsed_s"' in line:
            doc = json.loads(line)
            del doc["elapsed_s"]
            line = json.dumps(doc, separators=(",", ":")) + "\n"
        lines.append(re.sub(r"\b[0-9]+\.[0-9]{2}s\)", "s)", line))
    return "".join(lines)


def digest(text: str) -> str:
    return hashlib.sha256(untimed(text).encode()).hexdigest()


def replay(argv: tuple[str, ...], out_dir: str) -> tuple[int, str, str]:
    """Run ``argv`` through ``cli.main`` in process, with ``OUT`` standing
    for ``out_dir``; the exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main([out_dir if arg == OUT else arg for arg in argv])
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


ROWS = (
    Golden(
        ("classify", *TARGETS),
        1,
        "c9f5aa2c8a1fa70c7f3582694ef26e879d846c052532219e08d42407de96f573",
        EMPTY,
    ),
    Golden(
        ("classify", *TARGETS, "--json"),
        1,
        "c819fb837f6e9b63180c62f4da0cb0a0b75f35a1dd2bda4114b92e28feb7f31c",
        EMPTY,
    ),
    Golden(
        ("classify", SMALL_P_LARGE_COFACTOR, "--json"),
        0,
        "53b2a078622b7a72647b7c11f4a1608f34a3a65a6927dc656eff594e84223de8",
        EMPTY,
    ),
    Golden(
        ("classify", THREE_P_CUBED, "--json"),
        0,
        "755e29a9668cc25e07b261bbf4bf98facd70c6c22b5e7c286f63bce56bc76e32",
        EMPTY,
    ),
    Golden(
        ("classify", SMOOTH_P_MINUS_1, "--json"),
        1,
        "5e4a4d3dc3f9d643b9eee55f38e00b09f23732aafa0ee55f34f0be91706f2213",
        EMPTY,
    ),
    Golden(
        ("classify", *BOUND_SETTLED),
        1,
        "f1223830cab198f184ddcbbf59d93f68d43fb20596cc86a8b47b9f4772200541",
        EMPTY,
    ),
    Golden(
        ("classify", *BOUND_SETTLED, "--json"),
        1,
        "9e9e8bb0e6438ce8510b52eac9c5937a80ffbb980a166e108f1633837838886f",
        EMPTY,
    ),
    Golden(
        ("witness", *BOUND_SETTLED, "--json"),
        1,
        "64b45a2a4808713521cf1603bca7fb6a37757c3621d5a14d5faa579cbef06e4d",
        "c12cbef1319e2a3100460a1f4e2b5b8c0886a695ab5d0e5866060d309d8df10d",
    ),
    Golden(
        ("witness", THREE_P_CUBED, "--json"),
        0,
        "f878d838f695c088c79ddfab1311440650b7cc6a287dc4306cfe343164e0ce7a",
        EMPTY,
    ),
    Golden(
        ("witness", *WITNESSED),
        0,
        "cf36bbe56e861a150c440536c5f5cdd17747a4b4483de57b16f6cdd27ac64c3e",
        EMPTY,
    ),
    Golden(
        ("witness", *WITNESSED, "--json"),
        0,
        "26c378205b2ab2bb1342d0e03d219cf2780812c9540ef49f3a6c358f2eb98831",
        EMPTY,
    ),
    Golden(
        ("witness", "12"),
        1,
        EMPTY,
        "937e09053d8d34b1157a173b7efac4618b149d3d5a816fb704aa3bd8fc895631",
    ),
    Golden(
        ("witness", "245", "--json", "--output-dir", OUT),
        0,
        "6621f99bd0f27c5debe0ed725be4c3f11c6e08e4d46b09298cabba817ead9253",
        EMPTY,
        (
            ("witness_245.json", "f134c65c2cca6c9d9a4740ea8bf4da5ffb7a965ac103814b310da29eaa7eb744"),
        ),
    ),
    Golden(
        ("witness", HUGE_ODD, "--json"),
        0,
        "42a1fe87f63ac81a4576cedf4541647fe8713f604a2d7cdad86bdac7ef40f715",
        EMPTY,
    ),
    Golden(
        ("verify", "--coeffs", EVEN_FAMILY),
        0,
        "3cba3891a5d8f5dddeb5be1eec337077027a051e0bdced030bc86536fd6c6894",
        EMPTY,
    ),
    Golden(
        ("verify", "--coeffs", EVEN_FAMILY, "--json"),
        0,
        "1e456c8b221cb82d32d06d16cfdd1a7ae793af2afd6a7a3dbf8c9e10079a59f1",
        EMPTY,
    ),
    Golden(
        ("scan", "--support", "0,1"),
        0,
        "30ce74ff987e9ad162b82ed9eb4f287fa2952517e13f892a2d455e4ed6f8e4b4",
        EMPTY,
    ),
    Golden(
        SCAN_JSON,
        0,
        "94a1a7b5a613ace17622734fd5a21cc85ba337ed6d36e483e2f96ee55ebdcbd8",
        EMPTY,
    ),
    Golden(
        SCAN_TWO_WORKERS,
        0,
        "49378efb6bd39a7d5c015867c936822238c56cfd7587c8a94544aaf825a52114",
        EMPTY,
    ),
    Golden(
        ("scan", "--support", "0,1", "--direct", "--json"),
        0,
        "2729d5e89481de8bb1aaae4a9d331a26d0cc600fec8f373af7e9cd82b134fdeb",
        EMPTY,
    ),
    Golden(
        ("scan", "--support=-1,0,1", "--direct", "--json"),
        0,
        "cb7d6bf3c26602ab598b9849615f503827a59c6c66520ec806bf369750b65736",
        EMPTY,
    ),
    Golden(
        ("scan", "--support", "0,1", "--limit", "65535"),
        3,
        EMPTY,
        "3df1ba05365456d2800cefae1ca57baae8e27c4a31aee7d0170b19679a12edeb",
    ),
    Golden(
        ("crosscheck", "--count", "200", "--seed", "1"),
        0,
        "e4037811e6c2b6ace6fcf14b81c9cee9a998f1b8bb7e5173670aabdb03ce0bb2",
        EMPTY,
    ),
    Golden(
        ("crosscheck", "--count", "200", "--seed", "2", "--height", "1000000", "--json"),
        0,
        "107118c7c628b74e6934bdff08d8fa59cc35b8cb2d9687d83609cc824d4c83bd",
        EMPTY,
    ),
    Golden(
        ("crosscheck", "--count", "300", "--seed", "7", "--height", "0", "--json"),
        0,
        "4e1f27fd159bc14880dca05b7a7cd24df16ac8aecf745d51b4b0eb19658aa177",
        EMPTY,
    ),
    Golden(
        ("audit", "--count", "200", "--seed", "1"),
        0,
        "66ac271119b73a204616dc2119260a78cfff90d0fcaa47c28ce3b4d669873681",
        EMPTY,
    ),
    Golden(
        ("audit", "--count", "200", "--seed", "7", "--json"),
        0,
        "c276d78270d04e60e3bed9b0e609f959678ff4b2dd1d8709bec523186f8899ed",
        EMPTY,
    ),
    Golden(
        ("classify", "+9"),
        2,
        EMPTY,
        "f1c7734ed20374604ed9fc4dee6306d1491b34be6876d8f63aebbe3d175c311f",
    ),
    Golden(
        ("verify", "--coeffs", "1,2,3"),
        2,
        EMPTY,
        "191cce8569a37b0931f6d250b0f1bc6c318dce6d920e96dd356131d05620d735",
    ),
    Golden(
        ("scan", "--workers", "0"),
        2,
        EMPTY,
        "50915d5346daf9a7575888ccc48b72a5444bb39ff2f9032488b9f19cfdb36875",
    ),
    # Bad spellings that start with a minus get the grammar's message.
    Golden(
        ("classify", "5", BAD_MINUS),
        2,
        EMPTY,
        "6a925d92369b49d6ce6cb493877853a9ed09636fd4a9bd08b119e182c1f29657",
    ),
    Golden(
        ("classify", BAD_MINUS),
        2,
        EMPTY,
        "6a925d92369b49d6ce6cb493877853a9ed09636fd4a9bd08b119e182c1f29657",
    ),
    Golden(
        ("crosscheck", "--seed", BAD_MINUS),
        2,
        EMPTY,
        "b4eb87fc7fc233d28bd7c0736668abec6421ff7ccc1b8e9cc9334a340e10f9fe",
    ),
)
