import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from mreg import (
    GradingError,
    HomogeneityError,
    InputError,
    InsufficientBoxError,
    Limits,
    MregError,
    ResourceLimitError,
    ZeroModuleError,
    MultigradedRing,
    coarsening_constants,
    load_problem,
)
from mreg.cli import run
from mreg.errors import show
from mreg.groebner import element_degree

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


@pytest.fixture
def capture(capsys):
    def invoke(argv):
        code = run(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    return invoke


def run_json(capture, argv):
    code, out, err = capture(argv)
    assert code == 0, err
    return json.loads(out)


def validate(obj):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(obj, SCHEMA)


def test_regnum_example_points(capture):
    obj = run_json(capture, ["regnum", "--v", "1,1", str(PROBLEMS / "ex1-four-points.json")])
    assert obj["regnum"] == 2
    validate(obj)


def test_check_hirzebruch(capture):
    obj = run_json(capture, ["check", str(PROBLEMS / "hirzebruch-s2.json")])
    assert obj == {"positive": True, "suggested_v": [1, 3]}
    validate(obj)


def test_ragged_matrix_exits_2(tmp_path, capture):
    bad = tmp_path / "nonsense.json"
    bad.write_text(
        json.dumps(
            {
                "ring": {"variables": ["x", "y"], "degrees": [[1, 0], [1]]},
                "ideal": ["x*y"],
            }
        )
    )
    code, _, err = capture(["betti", str(bad)])
    assert code == 2
    assert "error" in err


def test_nonpositive_grading_exits_3(tmp_path, capture):
    bad = tmp_path / "nonpositive.json"
    bad.write_text(
        json.dumps(
            {
                "ring": {"variables": ["x", "y"], "degrees": [[1], [-1]]},
                "ideal": ["x*y"],
            }
        )
    )
    code, _, _ = capture(["regnum", str(bad)])
    assert code == 3


def test_non_homogeneous_exits_4(tmp_path, capture):
    bad = tmp_path / "inhom.json"
    bad.write_text(
        json.dumps(
            {
                "ring": {"variables": ["x", "y"], "degrees": [[1, 0], [0, 1]]},
                "ideal": ["x + y"],
            }
        )
    )
    # `check` builds no module: only the load-time check of the ideal stops it
    for command in ("betti", "check"):
        code, out, err = capture([command, bad.as_posix()])
        assert (code, out) == (4, ""), command
        assert err == "error: element is not homogeneous: degrees [(0, 1), (1, 0)]\n"


@pytest.mark.parametrize("command", ["regnum", "bounds", "minvectors", "scalar-check"])
def test_negative_imax_exits_2(capture, command):
    code, out, err = capture([command, "--imax", "-1", str(PROBLEMS / "four-cycle.json")])
    assert (code, out) == (2, "")
    assert "--imax must be nonnegative" in err


@pytest.mark.parametrize("command", [
    ["minvectors"], ["points", "hilbert"], ["points", "bregularity"], ["points", "generic"],
    ["points", "connections"],
], ids=" ".join)
def test_negative_box_exits_2(capture, command):
    path = PROBLEMS / ("four-cycle.json" if command == ["minvectors"] else "eight-points.json")
    code, out, err = capture([*command, "--box", "-1", str(path)])
    assert (code, out, err) == (2, "", "error: --box must be nonnegative\n")


def test_negative_length_cap_exits_2(capture):
    code, out, err = capture(["bounds", "--max-length", "-1", str(PROBLEMS / "four-cycle.json")])
    assert (code, out, err) == (2, "", "error: max_length must be nonnegative, not -1\n")
    with pytest.raises(InputError, match="max_length must be nonnegative"):
        Limits(max_length=-1)


def test_negative_degree_cap_is_a_cap(tmp_path, capture):
    # the module's generator sits in degree (-4, 0); its S-pair x0^2, x0*x1 in (-1, 0)
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({
        "ring": {"variables": ["x0", "x1", "y0", "y1"],
                 "degrees": [[1, 0], [1, 0], [0, 1], [0, 1]]},
        "module": {"shifts": [[-4, 0]], "relations": [["x0^2"], ["x0*x1"]]},
    }))
    code, out, err = capture(["betti", "--max-degree", "-1", str(path)])
    assert code == 0, err
    assert json.loads(out)["fine"][0] == {"i": 0, "degree": [-4, 0], "beta": 1}
    code, out, err = capture(["betti", "--max-degree", "-2", str(path)])
    assert (code, out) == (5, "")
    assert err == "error: S-pair of coarse degree -1 exceeds the degree cap -2\n"


def test_degree_past_the_term_codes_exits_5(tmp_path, capture):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ring": {"variables": ["x", "y"], "degrees": [[1], [1]]},
                                "ideal": ["x^2147483648", "x*y"]}))
    code, out, err = capture(["betti", path.as_posix()])
    assert (code, out) == (5, "")
    assert err == "error: coarse degree 2147483648 exceeds the term-code limit 2147483647\n"


@pytest.mark.parametrize("degree", ["2", "2,0,5"])
def test_points_hilbert_degree_of_the_wrong_length_exits_2(capture, degree):
    argv = ["points", "hilbert", "--degree", degree, str(PROBLEMS / "eight-points.json")]
    code, out, err = capture(argv)
    assert (code, out) == (2, "")
    assert "one entry per factor" in err


def test_degree_cap_exits_5(capture):
    code, _, err = capture(
        ["resolve", "--max-degree", "1", str(PROBLEMS / "eight-points.json")]
    )
    assert code == 5
    assert "cap" in err


@pytest.mark.parametrize("cap", [["--max-degree", "1"], ["--max-length", "1"]])
def test_regnum_caps_exit_5(capture, cap):
    code, out, err = capture(["regnum", *cap, str(PROBLEMS / "eight-points.json")])
    assert code == 5, err
    assert out == ""
    assert "cap" in err


BOUND_COMMANDS = [["bounds", "--imax", "2"], ["minvectors", "--box", "3"], ["scalar-check"]]


@pytest.mark.parametrize("command", BOUND_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("cap", [["--max-degree", "0"], ["--max-length", "0"]], ids=lambda c: c[0])
def test_bound_commands_caps_exit_5(capture, command, cap):
    code, out, err = capture([*command, *cap, str(PROBLEMS / "four-cycle.json")])
    assert code == 5, err
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize("command", BOUND_COMMANDS, ids=lambda c: c[0])
def test_bound_commands_hold_degree_bounds_to_the_cap(capture, command):
    # the resolution fits under the cap; the level-2 bound 18 does not
    code, out, err = capture([*command, "--max-degree", "10", str(PROBLEMS / "hirzebruch-s2.json")])
    assert code == 5, err
    assert out == ""
    assert "degree bound 18" in err


@pytest.mark.parametrize("command", BOUND_COMMANDS, ids=lambda c: c[0])
def test_bound_commands_generous_caps_change_nothing(capture, command):
    path = str(PROBLEMS / "ex1-four-points.json")
    code, plain, _ = capture([*command, path])
    assert code == 0
    code, capped, err = capture([*command, "--max-degree", "40", "--max-length", "4", path])
    assert code == 0, err
    assert capped == plain


@pytest.mark.parametrize("flags, message", [
    (["--box", "3", "--max-degree", "2"], "S-pair of coarse degree 4 exceeds the degree cap 2"),
    (["--box", "3", "--max-degree", "10"], "degree bound 14 exceeds the degree cap 10"),
    (["--box", "3", "--imax", "1", "--max-degree", "10"],
     "degree bound 26 exceeds the degree cap 10"),
    (["--box", "3", "--imax", "3", "--max-degree", "4"], "degree bound 5 exceeds the degree cap 4"),
    (["--box", "5", "--max-degree", "6"], "degree bound 8 exceeds the degree cap 6"),
    (["--box", "5", "--max-degree", "20"], "degree bound 26 exceeds the degree cap 20"),
], ids=["s-pair", "box3", "box3-imax1", "box3-imax3", "box5-cap6", "box5-cap20"])
def test_minvectors_reports_the_first_candidate_past_the_cap(capture, flags, message):
    # the candidates are checked in order, each before any region is built
    code, out, err = capture(["minvectors", *flags, str(PROBLEMS / "four-cycle.json")])
    assert (code, out, err) == (5, "", f"error: {message}\n")


@pytest.mark.parametrize("cap", [["--max-degree", "5"], ["--max-length", "1"]], ids=lambda c: c[0])
def test_points_connections_caps_exit_5(capture, cap):
    code, out, err = capture(["points", "connections", *cap, str(PROBLEMS / "eight-points.json")])
    assert code == 5, err
    assert out == ""
    assert "cap" in err


def test_points_connections_degree_cap_threshold(capture):
    # 6 is the highest coarse degree of an S-pair the eight points reduce
    path = str(PROBLEMS / "eight-points.json")
    code, plain, _ = capture(["points", "connections", path])
    assert code == 0
    code, capped, err = capture(["points", "connections", "--max-degree", "6", path])
    assert code == 0, err
    assert capped == plain


@pytest.mark.parametrize("problem", ["eight-points.json", "ex1-four-points.json"])
def test_points_connections_generous_caps_change_nothing(capture, problem):
    path = str(PROBLEMS / problem)
    code, plain, _ = capture(["points", "connections", path])
    assert code == 0
    code, capped, err = capture(
        ["points", "connections", "--max-degree", "1000", "--max-length", "10", path]
    )
    assert code == 0, err
    assert capped == plain


def test_insufficient_box_exits_5(capture):
    code, _, _ = capture(
        ["points", "bregularity", "--box", "2", str(PROBLEMS / "eight-points.json")]
    )
    assert code == 5


def test_byte_determinism(capture):
    argv = ["betti", "--v", "1,1", str(PROBLEMS / "eight-points.json")]
    _, out1, _ = capture(argv)
    _, out2, _ = capture(argv)
    assert out1 == out2
    argv_table = argv + ["--format", "table"]
    _, t1, _ = capture(argv_table)
    _, t2, _ = capture(argv_table)
    assert t1 == t2


def readme_invocations():
    """The argument lists of the `mreg` lines of README's "Command line" block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("mreg ")]


def test_all_reports_validate_against_schema(capture, monkeypatch):
    monkeypatch.chdir(ROOT)  # README's paths are relative to the repository
    readme = readme_invocations()
    assert len(readme) == 13
    commands = readme + [
        ["check", str(PROBLEMS / "weighted-44.json")],
        ["coarsen", "--v", "1,3", str(PROBLEMS / "hirzebruch-s2.json")],
        ["resolve", "--v", "1,1", str(PROBLEMS / "ex1-four-points.json")],
        ["betti", "--v", "1,3", str(PROBLEMS / "hirzebruch-s2.json")],
        ["regnum", "--v", "1,1", str(PROBLEMS / "four-cycle.json")],
        ["bounds", "--v", "1,1", "--imax", "2", str(PROBLEMS / "ex1-four-points.json")],
        ["bounds", "--v", "2,3", "--i", "1", str(PROBLEMS / "four-cycle.json")],
        ["minvectors", "--box", "3", "--imax", "1", str(PROBLEMS / "four-cycle.json")],
        ["scalar-check", "--v", "1,1", "--d", "2", str(PROBLEMS / "ex1-four-points.json")],
        ["hochster", "--v", "1,1", str(PROBLEMS / "four-cycle.json")],
        ["points", "hilbert", "--degree", "2,1", str(PROBLEMS / "eight-points.json")],
        ["points", "hilbert", "--box", "5", str(PROBLEMS / "eight-points.json")],
        ["points", "bregularity", str(PROBLEMS / "eight-points.json")],
        ["points", "resvector", str(PROBLEMS / "eight-points.json")],
        ["points", "generic", "--box", "6", str(PROBLEMS / "ex1-four-points.json")],
        ["points", "connections", str(PROBLEMS / "eight-points.json")],
    ]
    reports = [run_json(capture, argv) for argv in commands]
    for obj in reports:
        validate(obj)


def test_problem_files_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    problem_schema = json.loads((ROOT / "docs" / "problem-schema.json").read_text())
    for path in sorted(PROBLEMS.glob("*.json")):
        jsonschema.validate(json.loads(path.read_text()), problem_schema)


def test_regnum_hochster_route(capture):
    obj = run_json(
        capture, ["regnum", "--v", "2,3", "--route", "hochster", str(PROBLEMS / "four-cycle.json")]
    )
    assert obj["regnum"] == 7
    validate(obj)


def test_table_format_renders(capture):
    code, out, _ = capture(
        ["regnum", "--v", "1,1", "--format", "table", str(PROBLEMS / "ex1-four-points.json")]
    )
    assert code == 0
    assert "regnum" in out and "{" not in out.splitlines()[0]


def test_field_override_rational(capture):
    obj = run_json(
        capture, ["regnum", "--v", "1,1", "--field", "q", str(PROBLEMS / "four-cycle.json")]
    )
    assert obj["regnum"] == 2


def test_composite_and_oversized_characteristics_exit_2(capture):
    path = str(PROBLEMS / "four-cycle.json")
    code, out, err = capture(["check", "--field", "p:1000000000000000001", path])  # 101 divides it
    assert (code, out) == (2, "")
    assert err == "error: characteristic must be prime, got 1000000000000000001\n"
    code, out, err = capture(["check", "--field", "p:3317044064679887385961981", path])
    assert (code, out) == (2, "")
    assert err == ("error: characteristic must be below 3317044064679887385961981, "
                   "got 3317044064679887385961981\n")


def test_hochster_command_computes_each_link_homology_once(capture, monkeypatch):
    import mreg.localcoh

    original = mreg.localcoh._homology_from_faces
    calls = []

    def counted(faces, *args):
        calls.append(frozenset(faces))
        return original(faces, *args)

    monkeypatch.setattr(mreg.localcoh, "_homology_from_faces", counted)
    obj = run_json(capture, ["hochster", "--v", "2,3", str(PROBLEMS / "four-cycle.json")])
    assert len(calls) == 9  # the empty face, 4 vertices and 4 edges
    assert [a["value"] for a in obj["a_invariants"]] == [None, None, 0, None, None]


def test_points_reject_module_commands(capture):
    code, _, _ = capture(["hochster", str(PROBLEMS / "eight-points.json")])
    assert code == 2


def test_zero_module_exits_2(tmp_path, capture):
    unit = tmp_path / "unit.json"
    unit.write_text(
        json.dumps(
            {
                "ring": {"variables": ["x", "y"], "degrees": [[1, 0], [0, 1]]},
                "ideal": ["1"],
            }
        )
    )
    code, _, err = capture(["regnum", str(unit)])
    assert code == 2
    assert "zero module" in err


# each error class and the phrase README's exit-code list gives its code
README_EXIT_PHRASES = {
    MregError: "any other failure",
    InputError: "malformed input",
    ZeroModuleError: "malformed input",
    GradingError: "grading not positive",
    HomogeneityError: "non-homogeneous polynomial",
    ResourceLimitError: "resource limit",
    InsufficientBoxError: "resource limit",
}


def test_error_exit_codes_match_the_readme():
    text = " ".join((ROOT / "README.md").read_text().split())
    listed = text[text.index("Exit codes:"):]
    listed = listed[: listed.index(".")]
    codes = {int(code): phrase for code, phrase in re.findall(r"`(\d)` ([^,`(]+)", listed)}
    assert codes[0] == "success"
    for cls, phrase in README_EXIT_PHRASES.items():
        assert codes[cls.exit_code].startswith(phrase), cls


MALFORMED = {
    "point-coordinate": {"points": {"dims": [1, 1], "points": [[[1, "1/0"], [1, 0]], [[0, 1], [1, 1]]]}},
    "point-dims": {"points": {"dims": ["a", 1], "points": [[[1, 0], [1, 0]], [[0, 1], [1, 1]]]}},
    "ideal-zero-denominator": {
        "ring": {"variables": ["x", "y"], "degrees": [[1], [1]]},
        "ideal": ["1/0*x"],
    },
    "point-fraction": {"points": {"dims": [1, 1], "points": [[[1, 0.5], [1, 0]]]}},
    "point-dims-fraction": {"points": {"dims": [1.5, 1], "points": [[[1, 0], [1, 0]]]}},
    "point-infinity": {"points": {"dims": [1, 1], "points": [[[1, float("inf")], [1, 0]]]}},
    "ring-degree-fraction": {
        "ring": {"variables": ["x", "y"], "degrees": [[1], [0.5]]},
        "ideal": ["x"],
    },
    "module-shift-fraction": {
        "ring": {"variables": ["x", "y"], "degrees": [[1], [1]]},
        "module": {"shifts": [[0.5]], "relations": [["x"]]},
    },
    "free-shift-fraction": {
        "ring": {"variables": ["x", "y"], "degrees": [[1], [1]]},
        "free": {"shifts": [[1.25]]},
    },
    "facet-unknown-vertex": {
        "ring": {"variables": ["a", "b"], "degrees": [[1], [1]]},
        "complex": {"vertices": ["a", "b"], "facets": [["a", "c"]]},
    },
}


# files json.dumps cannot write: integers longer than the 4300 digits Python
# converts by default, and bytes that are not UTF-8
LONG = b"1" * 5000
RING_TEXT = b'"ring": {"variables": ["x", "y"], "degrees": [[1], [%s]]}'
UNREADABLE = {
    "long-coefficient": b'{%s, "ideal": ["%s*x"]}' % (RING_TEXT % b"1", LONG),
    "long-exponent": b'{%s, "ideal": ["x^%s"]}' % (RING_TEXT % b"1", LONG),
    "long-json-literal": b'{%s, "ideal": ["x"]}' % (RING_TEXT % LONG),
    "undecodable": b"\xff\xfe{}",
}
MALFORMED_FILES = {**{k: json.dumps(v).encode() for k, v in MALFORMED.items()}, **UNREADABLE}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_input_exits_2_without_traceback(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(MALFORMED_FILES[name])
    proc = run_process("python -m mreg", ["regnum", str(path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_integers_past_the_digit_limit_print_exactly():
    v = ("7" * 3000, "1" + "0" * 2999 + "1")
    proc = run_process("python -m mreg", ["coarsen", "--v", ",".join(v), "problems/four-cycle.json"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    out = json.loads(proc.stdout)
    ring = load_problem(str(PROBLEMS / "four-cycle.json")).ring
    want = coarsening_constants(ring, tuple(int(x) for x in v))
    assert len(out["c"]) > 4300
    assert [Decimal(out[k]) for k in ("c", "s", "sigma")] == [want.c_v, want.s_v, want.sigma]


NINES = "9" * 4300  # the longest integer the CLI parses; computed ones run longer


@pytest.mark.parametrize("argv,code", [
    (["regnum", "--v", f"{NINES},1", "problems/hirzebruch-s2.json"], 3),
    (["coarsen", "--v", f"{NINES},1", "problems/hirzebruch-s2.json"], 3),
    (["bounds", "--v", f"{NINES},1", "--max-degree", "5", "problems/four-cycle.json"], 5),
], ids=["regnum", "coarsen", "bounds"])
def test_errors_print_integers_past_the_digit_limit(argv, code):
    proc = run_process("python -m mreg", argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert re.search(r"\d{4301}", lines[0])


def test_show_prints_numbers_as_str_does_at_any_length():
    for x in (0, -7, True, (1,), (2, -3), [(0, 1), (4, 5)], Fraction(-3, 4), Fraction(5), [1, "a"]):
        assert show(x) == str(x)
    big = 10**5000 + 1
    assert show((big, Fraction(-1, big))) == f"({Decimal(big)}, -1/{Decimal(big)})"
    R = MultigradedRing(("x", "y"), ((1,), (1,)))
    degrees = re.escape(f"degrees [(1,), ({Decimal(big + 1)},)]")
    with pytest.raises(HomogeneityError, match=degrees):
        element_degree(R, ((0,), (big,)), [(0, (1, 0)), (1, (0, 1))])
    assert R.poly_str({(big, 0): 1}) == f"x^{Decimal(big)}"


def test_huge_integers_serialize_as_strings():
    from mreg.cli import _jsonable

    big = 2**63 + 3
    out = _jsonable({"regnum": big, "v": [1, -big], "ok": True, "small": 2**53 - 1})
    assert out["regnum"] == str(big)
    assert out["v"] == [1, f"-{big}"]
    assert out["ok"] is True and out["small"] == 2**53 - 1
    assert json.dumps(out)  # round-trips through the serializer


# -- entry points ------------------------------------------------------------

CONSOLE_SCRIPT = "import sys; from mreg.cli import main; sys.argv[0] = 'mreg'; main()"
ENTRY_POINTS = {
    "mreg": ["-c", CONSOLE_SCRIPT],
    "python -m mreg": ["-m", "mreg"],
    "python -m mreg.cli": ["-m", "mreg.cli"],
}


def run_process(form, argv, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *ENTRY_POINTS[form], *argv], cwd=ROOT, env=env, capture_output=True,
        timeout=timeout,
    )


def test_module_entry_points_match_the_console_script():
    argv = ["regnum", "--v", "1,1", "problems/ex1-four-points.json"]
    ref = run_process("mreg", argv)
    assert ref.returncode == 0 and json.loads(ref.stdout)["regnum"] == 2
    for form in ("python -m mreg", "python -m mreg.cli"):
        proc = run_process(form, argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ref.stdout


@pytest.mark.parametrize("form", sorted(ENTRY_POINTS))
def test_entry_points_exit_5_on_degree_cap(form):
    proc = run_process(form, ["resolve", "--max-degree", "1", "problems/eight-points.json"])
    assert proc.returncode == 5
    assert proc.stdout == b""


def test_large_prime_fields_are_decided_at_once():
    # trial division up to the square root took minutes for this prime
    argv = ["check", "--field", "p:1000000000000000003", "problems/four-cycle.json"]
    proc = run_process("mreg", argv, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["positive"] is True


def test_a_large_least_vector_is_found_at_once(tmp_path):
    # the least vector has L1 norm 24 in Z^4; sorting every box up to 21
    # before the answer took over a minute
    problem = {
        "field": "p:32003",
        "ring": {
            "variables": ["a0", "a1", "a2", "a3", "b0", "b1", "c0", "c1"],
            "degrees": [[1, 0, 0, 0], [-20, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0],
                        [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]],
        },
        "ideal": ["a1*a3", "b0*c0"],
    }
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(problem))
    proc = run_process("mreg", ["check", str(path)], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"positive": True, "suggested_v": [1, 21, 1, 1]}
