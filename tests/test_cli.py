"""Command-line interface: verbs, formats, JSON output, batch files,
exit codes."""
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import alexkit
from alexkit import BraidWord, burau, cli, errors
from alexkit.cli import parse_t_spec, run, selftest_report
from alexkit.errors import ParseError, RouteDisagreement
from alexkit.fields import (ComplexPoint, GenericTField, RationalPoint,
                            mat_identity)
from alexkit.laurent import MultiLaurentPoly


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_t_spec():
    assert isinstance(parse_t_spec("generic"), GenericTField)
    f = parse_t_spec("3/4")
    assert isinstance(f, RationalPoint) and f.t == 0.75
    c = parse_t_spec("0.5+0.25i")
    assert isinstance(c, ComplexPoint) and c.t == complex(0.5, 0.25)
    assert parse_t_spec("2i").t == 2j
    assert parse_t_spec("-2i").t == -2j
    assert parse_t_spec("1e-3+2i").t == complex(1e-3, 2)
    assert parse_t_spec("-0.7+0.4i").t == complex(-0.7, 0.4)
    assert parse_t_spec("-1/3").t == -Fraction(1, 3)
    with pytest.raises(ParseError):
        parse_t_spec("one")


def test_alexander_braid(capsys):
    code, out, _ = _run(capsys, ["alexander", "2: s1 s1 s1"])
    assert code == 0
    assert out.strip() == "1 - t + t^2"


def test_alexander_json(capsys):
    code, out, _ = _run(capsys, ["alexander", "--json", "2: s1 s1 s1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"]["coeffs"] == [[0, 1, 1], [1, -1, 1], [2, 1, 1]]


def test_alexander_multivariable(capsys):
    code, out, _ = _run(capsys, ["alexander", "2: s1 s1"])
    assert code == 0
    assert out.strip() == "1"  # Hopf link multivariable polynomial


def test_alexander_xcode_and_pd(capsys):
    code, out, _ = _run(capsys, ["alexander", "--format", "xcode",
                                 "arcs 3\nx 3 2 1 +\nx 1 3 2 +\nx 2 1 3 +"])
    assert code == 0 and out.strip() == "1 - t + t^2"
    code, out, _ = _run(capsys, ["alexander", "--format", "pd",
                                 "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"])
    assert code == 0 and out.strip() == "1 - t + t^2"


@pytest.mark.parametrize("text", [",", " , "])
def test_pd_text_without_tuples_is_the_unknot(capsys, text):
    assert _run(capsys, ["alexander", "--format", "pd", text]) == (
        0, "1\n", "")


def test_closure_and_burau(capsys):
    code, out, _ = _run(capsys, ["closure", "3: s1 S2 s1 S2"])
    assert code == 0 and out.strip() == "1 - 3 t + t^2"
    code, out, _ = _run(capsys, ["burau", "2: s1"])
    assert code == 0
    assert out.splitlines() == ["[1 - t, t]", "[1, 0]"]


def test_fiber_verb(capsys):
    code, out, _ = _run(capsys, ["fiber", "--t", "2", "2: s1 s1 s1"])
    assert code == 0 and out.strip() == "1"
    code, out, _ = _run(capsys, ["fiber", "--t", "generic", "2: s1 s1 s1"])
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("spec", ["generic", "2", "-1/3", "0.3+0.9i"])
def test_fiber_on_link_is_typed_error(capsys, spec):
    code, out, err = _run(capsys, ["fiber", "--t", spec,
                                   "2: s1 s1 s1 s1 s1 s1"])
    assert code == 3 and out == ""
    assert err == "error: fibre dimensions need a univariate matrix\n"


def test_fiber_batch_survives_link(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    path.write_text("2: s1 s1 s1\n2: s1 s1 s1 s1 s1 s1\n3: s1 S2 s1 S2\n")
    code, out, _ = _run(capsys, ["fiber", "--file", str(path)])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [line.get("fiber_dim") for line in lines] == [1, None, 1]
    assert lines[1]["error_type"] == "UseMultivariableRoute"
    assert lines[1]["exit_code"] == 3


@pytest.mark.parametrize("spec", ["-1/3", "-0.7+0.4i", "2i", "1e-3+2i"])
def test_fiber_t_forms(capsys, spec):
    # a negative spec after --t is its value, not an option
    code, out, err = _run(capsys, ["fiber", "--t", spec, "2: s1 s1 s1"])
    assert code == 0, err
    assert out.strip() == "1"


def test_strata_virtual_module(capsys):
    code, out, _ = _run(capsys, ["strata", "2: s1 s1 s1"])
    assert code == 0 and out.strip() == "S^1 = 2"
    code, out, _ = _run(capsys, ["virtual-class", "2: s1 s1 s1"])
    assert code == 0 and out.strip() == "-3 L + 3 L^2"
    code, out, _ = _run(capsys, ["module", "--json", "2: s1 s1 s1"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["invariant_factors"]) == 2


def test_ring_verb(capsys):
    code, out, _ = _run(capsys, ["ring", "2: s1 s1 s1"])
    assert code == 0
    assert out.startswith("generators: a1, a2, a3")


def test_span_verbs(capsys):
    code, out, _ = _run(capsys, ["span", "--format", "dsl", "xp ; xm"])
    assert code == 0 and out.strip() == "src=2 mid=2 tgt=2"
    code, out, _ = _run(capsys, ["span", "--format", "braid", "2: s1"])
    assert code == 0 and out.strip() == "src=2 mid=2 tgt=2"


def test_catalog_verb(capsys):
    code, out, _ = _run(capsys, ["catalog"])
    assert code == 0
    assert any(line.startswith("trefoil:") for line in out.splitlines())
    code, out, _ = _run(capsys, ["catalog", "unknot"])
    assert code == 0 and out.startswith("unknot:")


def test_selftest(capsys):
    lines, ok = selftest_report()
    assert ok and len(lines) == 5
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    assert all(line.endswith(": ok") for line in out.strip().splitlines())


def test_selftest_reports_route_disagreement(capsys, monkeypatch):
    # a wrong reduced Burau matrix fails the closure cross-check of every
    # knot; selftest marks that route FAIL instead of raising
    monkeypatch.setattr(burau, "_reduce_rows", lambda rows, n: [
        [2 * x for x in row]
        for row in mat_identity(GenericTField(), n - 1).rows])
    lines, ok = selftest_report(["trefoil", "figure8", "hopf"])
    assert not ok
    assert lines == ["trefoil: FAIL (burau)", "figure8: FAIL (burau)",
                     "hopf: ok"]
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 1 and "FAIL (burau)" in out


def test_selftest_checks_torres_on_links(monkeypatch):
    # a multivariable Delta_L off by a factor fails the Torres condition
    # of both catalog links; a minor that raises fails it too
    right = cli.multivariable_alexander
    factor = MultiLaurentPoly.variable(1, 2) + MultiLaurentPoly.one(2)
    monkeypatch.setattr(cli, "multivariable_alexander",
                        lambda d: right(d) * factor)
    lines, ok = selftest_report(["hopf", "solomon", "trefoil"])
    assert not ok
    assert lines == ["hopf: FAIL (mv)", "solomon: FAIL (mv)", "trefoil: ok"]

    def disagree(d):
        raise RouteDisagreement("minors differ")

    monkeypatch.setattr(cli, "multivariable_alexander", disagree)
    assert selftest_report(["hopf"]) == (["hopf: FAIL (mv)"], False)


def test_exit_codes(capsys):
    code, _, err = _run(capsys, ["alexander", "not a braid"])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["alexander"])  # missing input
    assert code == 2
    code, _, err = _run(capsys, ["strata", "2: s1 s1"])  # link, not knot
    assert code == 3 and "error:" in err
    code, _, err = _run(capsys, ["alexander", "--t", "??", "1:"])
    assert code == 2
    # a complex t that overflows to infinity
    code, _, err = _run(capsys, ["fiber", "--t=1e309i", "2: s1 s1 s1"])
    assert (code, err) == (2, "error: t-spec '1e309i' is not finite\n")
    code, _, err = _run(capsys, ["span", "--format", "dsl", "--t=1e400i",
                                 "xp"])
    assert (code, err) == (2, "error: t-spec '1e400i' is not finite\n")
    # a finite complex t whose matrix or singular values leave the floats
    for argv in (["span", "--format", "dsl", "--t=1e308+1e308i",
                  "xp ; xm ; xp"],
                 ["fiber", "--t=1e308+1e308i", "2: s1 s1 s1"],
                 ["span", "--format", "dsl", "--t=1e-320+0i",
                  "xp ; xm ; xp"],
                 ["span", "--t=1e200+0i", "3: s1 S2 s1 S2"]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: complex t=") and err.count("\n") == 1
    code, _, err = _run(capsys, ["alexander", "--file", "/nonexistent"])
    assert code == 2
    # parentheses nested past tangles.MAX_DEPTH: a ParseError, not
    # RecursionError; a flat chain of any length is fine
    for text in _TOO_DEEP:
        code, out, err = _run(capsys, ["span", "--format", "dsl", text])
        assert (code, out) == (2, "")
        assert err.startswith("error: tangle nested deeper than")
        assert err.count("\n") == 1
    code, out, _ = _run(capsys, ["span", "--format", "dsl", _LONG_CHAIN])
    assert (code, out) == (0, "src=1 mid=1 tgt=1\n")
    # sizes past sys.maxsize, numbers past Python's digit limit for int,
    # and a format the verb does not read
    for argv in (["alexander", _BIG + ":"],
                 ["alexander", "--format", "xcode", "arcs " + _BIG],
                 ["alexander", _LONG + ":"], ["alexander", "3: s" + _LONG],
                 ["closure", "2: s" + _LONG],
                 ["alexander", "--format", "xcode", "arcs " + _LONG],
                 ["alexander", "--format", "pd", "X[%s,1,2,3]" % _LONG],
                 ["closure", "--format", "pd", "2: s1 s1 s1"],
                 ["burau", "--format", "xcode", "2: s1"],
                 ["alexander", "--format", "dsl", "xp"]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv[:2]
        assert err.startswith("error: ") and err.count("\n") == 1


_TOO_DEEP = ("(" * 1200 + "xp" + ")" * 1200,
             "(id+ # " * 1200 + "id+" + ")" * 1200)
_LONG_CHAIN = " ; ".join(["id+"] * 3000)
_BIG, _LONG = "9" * 23, "9" * 5000


_EXIT_2 = ("ParseError", "ValidationError", "AmbiguousOrientation",
           "BoundaryMismatch", "NotFound")


@pytest.mark.parametrize("cls", [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.AlexkitError)], ids=lambda cls: cls.__name__)
def test_error_exit_codes(cls):
    expected = (2 if cls.__name__ in _EXIT_2
                else 1 if cls is errors.RouteDisagreement else 3)
    assert cls.exit_code == expected


def test_batch_file(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    path.write_text("2: s1 s1 s1\n# comment line\n\nbad input\n1:\n")
    code, out, _ = _run(capsys, ["alexander", "--file", str(path)])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["delta"]["pretty"] == "1 - t + t^2"
    assert "error" in lines[1]
    assert lines[1]["error_type"] == "ParseError"
    assert lines[1]["exit_code"] == 2
    assert lines[2]["delta"]["pretty"] == "1"
    # a line nested too deeply is reported and the batch goes on
    path.write_text("\n".join(_TOO_DEEP + (_LONG_CHAIN, "xp ; xm")) + "\n")
    code, out, _ = _run(capsys, ["span", "--format", "dsl", "--file",
                                 str(path)])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [line.get("error_type") for line in lines] == [
        "ParseError", "ParseError", None, None]
    assert lines[2]["span"] == {"src": 1, "mid": 1, "tgt": 1}
    assert lines[3]["span"] == {"src": 2, "mid": 2, "tgt": 2}


def test_route_disagreement(tmp_path, capsys, monkeypatch):
    # a wrong reduced Burau matrix makes the closure cross-check fail
    monkeypatch.setattr(burau, "_reduce_rows", lambda rows, n: [
        [2 * x for x in row]
        for row in mat_identity(GenericTField(), n - 1).rows])
    with pytest.raises(RouteDisagreement):
        burau.closure_alexander(BraidWord(2, [1, 1, 1]))
    code, out, err = _run(capsys, ["closure", "2: s1 s1 s1"])
    assert code == 1 and out == "" and "cross-check" in err
    path = tmp_path / "batch.txt"
    path.write_text("2: s1 s1 s1\n")
    code, out, _ = _run(capsys, ["closure", "--file", str(path)])
    assert code == 0
    assert "cross-check" in json.loads(out)["error"]
    assert json.loads(out)["error_type"] == "RouteDisagreement"
    assert json.loads(out)["exit_code"] == 1


def test_fiber_jumps_at_rational_root(capsys):
    # stevedore 6_1: Delta = 2 - 5t + 2t^2 has the root t = 1/2
    stevedore = "4: s1 s1 s2 S1 S3 s2 S3"
    assert _run(capsys, ["fiber", "--t", "1/2", stevedore]) == (0, "2\n", "")
    assert _run(capsys, ["fiber", "--t", "3", stevedore]) == (0, "1\n", "")


def test_python_dash_m(tmp_path):
    # `python -m alexkit` runs the CLI from an uninstalled source tree
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(alexkit.__file__)))
    proc = subprocess.run([sys.executable, "-m", "alexkit", "alexander",
                           "2: s1 s1 s1"], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "1 - t + t^2\n", "")


def test_rational_t_does_not_import_numpy():
    """numpy is imported only for complex t."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(alexkit.__file__)))
    script = ("import sys, alexkit.cli\n"
              "assert alexkit.cli.run(['fiber', '--t', '2', '2: s1 s1 s1'])"
              " == 0\n"
              "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "1\nFalse\n", "")
