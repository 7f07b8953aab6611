"""Seeded fuzz of `cli.run`: random verbs, formats, t-specs, flags,
batch files and fragments of braid, PD, crossing-list and DSL text.

Whatever the call, nothing escapes as an exception, the exit code is one
of the documented 0-3, a failing call writes nothing on stdout and its
message on stderr, and a `--file` batch prints one JSON object per input
line.  A failure is one `error: <message>` line, except for argparse
usage errors: they exit with 2 and print the usage block followed by
`alexkit: error: <message>`.
"""
import contextlib
import io
import json
import random
import re

from alexkit import cli
from util import random_braid, random_crossing_list, random_tangle_expr

CALLS = 3000
# fragments reuse the digits of small inputs; any number above this is
# redrawn, so no braid, arc count or label makes a call run long
MAX_NUMBER = 12

PD_TEXTS = ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
            "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]",
            "X[4,1,3,2] X[2,3,1,4]", ",")
T_SPECS = ("generic", "2", "-1/3", "3/2", "0.3+0.9i", "2i", "-2i") * 2 + (
    "0", "1/0", "1e400i", "nan", "inf", "one", "")
NOISE = (" ", ":", "s", "S", "-", "#", "x", "+", "X[", "]", ",", "(", ")",
         ";", "xp", "id-", "arcs", "\t", "?")
FLAGS = ("--json", "--", "-x", "--t", "--format", "--file", "--json=1",
         "-h", "selftest", "trefoil")


def _seed_text(rng, fmt):
    if fmt == "braid":
        return random_braid(rng, 4, 8).render() if rng.random() < 0.9 \
            else "1:"
    if fmt == "xcode":
        return random_crossing_list(rng, 5).render()
    if fmt == "pd":
        return rng.choice(PD_TEXTS)
    return random_tangle_expr(rng, 6).render()


def _fragment(rng, text):
    """text with 0-2 edits: a cut, a repeated slice or inserted noise."""
    for _ in range(rng.choice((0, 0, 1, 2))):
        a = rng.randint(0, len(text))
        b = rng.randint(a, len(text))
        roll = rng.random()
        if roll < 0.4:
            text = text[:a] + text[b:]
        elif roll < 0.6:
            text = text[:b] + text[a:b] + text[b:]
        else:
            text = text[:a] + rng.choice(NOISE) + text[a:]
    if any(int(n) > MAX_NUMBER for n in re.findall(r"[0-9]+", text)):
        return _fragment(rng, _seed_text(rng, "braid"))
    return text


def _text(rng, fmt):
    return _fragment(rng, _seed_text(rng, rng.choice(
        (fmt,) * 6 + ("braid", "xcode", "pd", "dsl"))))


def _argv(rng, tmp_path, call):
    """A random argv, and the expected JSON line count of its --file
    batch (None without one)."""
    fmt = rng.choice(("braid",) * 4 + ("xcode", "xcode", "pd", "dsl",
                                       "dsl", "bogus"))
    argv = [rng.choice(cli._VERBS + ("nope",))]
    if rng.random() < 0.7:
        argv += ["--format", fmt]
    else:
        fmt = "braid"
    if rng.random() < 0.4:
        t = rng.choice(T_SPECS)
        argv += ["--t=" + t] if rng.random() < 0.5 else ["--t", t]
    if rng.random() < 0.3:
        argv.append("--json")
    if rng.random() < 0.15 and argv[0] in cli._HANDLERS:
        lines = [_text(rng, fmt) for _ in range(rng.randint(0, 4))]
        lines += ["", "   # comment"][:rng.randint(0, 2)]
        path = tmp_path / ("batch%d.txt" % call)
        path.write_text("\n".join(lines))
        kept = [ln.strip() if fmt == "dsl" else ln.split("#", 1)[0].strip()
                for ln in "\n".join(lines).splitlines()]
        return argv + ["--file", str(path)], sum(1 for ln in kept if ln)
    if rng.random() < 0.03:
        argv += ["--file", str(tmp_path / "missing.txt")]
    elif rng.random() < 0.95:
        argv.append(_text(rng, fmt))
    if rng.random() < 0.05:
        argv.insert(rng.randint(0, len(argv)), rng.choice(FLAGS))
    return argv, None


def test_cli_fuzz(tmp_path):
    rng = random.Random(97)
    codes = set()
    for call in range(CALLS):
        argv, batch = _argv(rng, tmp_path, call)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception as exc:
            raise AssertionError("%r raised %r" % (argv, exc)) from exc
        out, err = out.getvalue(), err.getvalue()
        codes.add(code)
        assert code in (0, 1, 2, 3), argv
        if code:
            assert out == "", argv
            if err.startswith("usage:"):
                assert code == 2, argv
                assert "\nalexkit: error: " in err, argv
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, \
                    (argv, err)
        elif batch is not None:
            objs = [json.loads(line) for line in out.splitlines()]
            assert len(objs) == batch, (argv, out)
            assert all(obj["verb"] == argv[0] for obj in objs), argv
    assert {0, 2, 3} <= codes
