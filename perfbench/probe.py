"""Set-up probe, run in a fresh interpreter: import the CLI, build its
parser and make one warm-up call of each kind on the smallest inputs
(crosscheck of one element, scan of the support {0}, witness for 245).

Prints one JSON line: the set-up time (raw, and at the reference speed of
speed.py), its parts, and whether every warm-up output was right (checked
after the clock stops).
"""

import contextlib
import io
from time import perf_counter

import speed

speed.reference()  # let the interpreter specialize the loop first
ref_before = speed.reference()
t_start = perf_counter()

import q16det.cli as cli  # noqa: E402

t_import = perf_counter()
parser = cli.build_parser()
t_parser = perf_counter()
WARM_UP = (
    ["crosscheck", "--count", "1", "--json"],
    ["scan", "--support", "0", "--json"],
    ["witness", "245", "--json"],
)
outputs = []
for argv in WARM_UP:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        args = parser.parse_args(argv)
        rc = args.func(args)
    outputs.append((rc, buf.getvalue()))
t_end = perf_counter()
ref_after = speed.reference()

import json  # noqa: E402

(rc_c, out_c), (rc_s, out_s), (rc_w, out_w) = outputs
scan = json.loads(out_s)
doc = cli.CertificateDocument.from_json_dict(json.loads(out_w))
ok = (
    rc_c == rc_s == rc_w == 0
    and json.loads(out_c)["count"] == 1
    and scan["total"] == 1 and scan["ok"]
    and doc.n == 245 and cli.verify_document(doc)
)
print(json.dumps({
    "setup_s": (t_end - t_start) * 2 * speed.NOMINAL_S / (ref_before + ref_after),
    "raw_setup_s": t_end - t_start,
    "import_s": t_import - t_start,
    "build_parser_ms": (t_parser - t_import) * 1e3,
    "warm_up_s": t_end - t_parser,
    "ok": ok,
}))
