import json
import math
import os
import re

import pytest

from hyperk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_horocycle_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--coeffs", "1,0,-1,0")
        assert code == 0
        assert "Horocycle center 0 radius 1/2" in out

    def test_geodesic_canonical_form(self, capsys):
        code, out, _ = run(capsys, "classify", "--geodesic", "-1,1")
        assert code == 0
        assert "a=1 b=0 c=0 d=-1" in out

    def test_degenerate_exit_3(self, capsys):
        code, _, err = run(capsys, "classify", "--coeffs", "0,0,0,1")
        assert code == 3
        assert "degenerate" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "classify", "--coeffs", "1,0,banana,0")
        assert code == 2

    def test_float_requires_inexact(self, capsys):
        code, _, err = run(capsys, "classify", "--horocycle", "0,0.5")
        assert code == 2
        assert "--inexact" in err

    def test_inexact_banner(self, capsys):
        code, out, _ = run(capsys, "--inexact", "classify", "--horocycle", "0,0.5")
        assert code == 0
        assert "exact-predicate guarantees disabled" in out

    def test_records_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "records", "classify", "--geodesic", "0,oo"
        )
        assert code == 0
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["kind"] == "geodesic"


class TestIntersect:
    def test_crossing_geodesics(self, capsys):
        code, out, _ = run(
            capsys,
            "intersect",
            "--first-geodesic", "-1,1",
            "--second-geodesic", "0,oo",
        )
        assert code == 0
        assert "interior_count=1" in out


class TestEarthquakeCommand:
    def test_apply(self, capsys):
        code, out, _ = run(
            capsys, "earthquake", "--fault", "0,oo", "--shear", "2",
            "apply", "-1", "1", "oo",
        )
        assert code == 0
        assert "-1 -> -2" in out
        assert "1 -> 1" in out

    def test_certify_prints_unsat_message(self, capsys):
        code, out, _ = run(
            capsys, "earthquake", "--fault", "0,oo", "--shear", "2", "certify"
        )
        assert code == 0
        assert "1 ≠ 4·(3/2)·(2/3)" in out


class TestVerifyCommand:
    def test_dyadic_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "dyadic", "--depth", "6")
        assert code == 0
        assert "[pass]" in out

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "nosuchsuite")
        assert code == 2

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERK_SEED", "12345")
        code, out, _ = run(capsys, "verify", "order", "--seed", "1")
        assert code == 0


class TestRenderCommand:
    def test_render_preset_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "render", "--preset", "dyadic", "-o", str(p1))[0] == 0
        assert run(capsys, "render", "--preset", "dyadic", "-o", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_exit_4(self, capsys):
        code, _, err = run(
            capsys, "render", "--preset", "empty", "-o", "/nonexistent/dir/x.svg"
        )
        assert code == 4

    def test_empty_scene_has_axis(self, capsys, tmp_path):
        p = tmp_path / "empty.svg"
        run(capsys, "render", "--preset", "empty", "-o", str(p))
        svg = p.read_text()
        assert "<line" in svg and "<svg" in svg


class TestFamilyCommand:
    def test_ray_preset(self, capsys):
        code, out, _ = run(capsys, "family", "--preset", "ray")
        assert code == 0
        assert "foliates" in out

    def test_disjoint_pair(self, capsys):
        code, out, _ = run(
            capsys, "family", "--horocycle", "0,1", "--hypercycle", "4,8,5,2"
        )
        assert code == 0
        assert "limit: horocycle" in out


class TestGraphCommand:
    def test_graph_file(self, capsys, tmp_path):
        f = tmp_path / "curves.txt"
        f.write_text(
            "horocycle a=1 b=0 c=-1 d=0\n"
            "horocycle a=1 b=-2 c=-1 d=1\n"
            "horocycle a=1 b=-4 c=-1 d=4\n"
            "horocycle a=0 b=0 c=1 d=-2\n"
        )
        code, out, _ = run(capsys, "graph", "--curves", str(f), "--autos")
        assert code == 0
        assert "2 automorphisms" in out


MALFORMED = [
    ("classify", "--coeffs", "1/0,0,-1,0"),
    ("classify", "--horocycle", "1/0,2"),
    ("classify", "--geodesic", "0"),
    ("intersect", "--first-geodesic", "0,1"),
    ("construct", "pinch", "--first", "0", "--second", "1,1"),
    ("construct", "equidistant", "--first", "0"),
    ("construct", "equidistant", "--first", "-1,1", "--distance", "inf"),
    ("construct", "equidistant", "--first", "-1,1", "--distance", "1000"),
    ("earthquake", "--fault", "0,oo", "--shear", "1/0", "apply", "1"),
    ("family", "--horocycle", "0,1", "--hypercycle", "1,2"),
    ("family", "--horocycle", "0,1"),
    ("family", "--horocycle", "0,1/0", "--hypercycle", "4,8,5,2"),
    ("verify", "order", "--seed", "x"),
    ("verify", "dyadic", "--depth", "-1"),
    ("render", "--preset", "dyadic", "--curves", "FILE", "-o", "a.svg"),
    ("graph", "--curves", "BADTEXT"),
    ("graph", "--curves", "DUPLICATES"),
    ("graph", "--curves", "EMPTY"),
    ("render", "--curves", "BADTEXT", "-o", "a.svg"),
    ("earthquake", "--fault", "0,oo", "--shear", "2", "certify", "--curves", "EMPTY"),
    ("--inexact", "intersect", "--first-geodesic", f"{2**1100},oo",
     "--second-horocycle", "oo,0.5"),
    ("render", "--curves", "FARLINE", "-o", "a.svg"),
    ("render", "--curves", "FAROBLIQUE", "-o", "a.svg"),
    ("classify", "--coeffs", f"1,0,0,-{2**2101}"),  # endpoints +-2^1050.5
]

#: curve files that MALFORMED names by placeholder
CURVE_FILES = {
    "BADTEXT": "horocycle a=1 b=0\n",
    "DUPLICATES": "horocycle a=1 b=0 c=-1 d=0\nhorocycle a=1 b=0 c=-1 d=0\n",
    "EMPTY": "# no curves\n",
    "FARLINE": f"geodesic a=0 b=1 c=0 d=-{2**1100}\n",  # x = 2^1100
    "FAROBLIQUE": f"hypercycle a=0 b=1 c=1 d=-{2**1100}\n",  # y = 2^1100 - x
}


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2_without_traceback(capsys, tmp_path, argv):
    files = {}
    for name, text in CURVE_FILES.items():
        files[name] = tmp_path / name
        files[name].write_text(text)
    argv = [str(files.get(a, a)) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("distance, message", [
    ("nan", "distance is not a number"), ("-1", "distance must be nonnegative"),
])
def test_bad_distance_says_which(capsys, distance, message):
    code, _, err = run(capsys, "construct", "equidistant", "--first", "-1,1",
                       "--distance", distance)
    assert code == 2
    assert message in err and "Traceback" not in err


def test_graph_of_empty_file_says_so(capsys, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("")
    code, _, err = run(capsys, "graph", "--curves", str(f))
    assert code == 2
    assert "no curves" in err and "mixed" not in err


def test_certify_of_empty_file_says_so(capsys, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("# no curves\n")
    code, out, err = run(
        capsys, "earthquake", "--fault", "0,oo", "--shear", "2", "certify",
        "--curves", str(f),
    )
    assert code == 2
    assert "no curves" in err and "satisfiable" not in out


#: x^2 + y^2 = HUGE has the irrational endpoints +-2^600.5; d is no float
HUGE = 2 * 4**600


def test_classify_of_huge_coefficients(capsys):
    code, out, err = run(capsys, "classify", "--coeffs", f"1,0,0,-{HUGE}")
    assert code == 0 and err == ""
    lo, hi = map(float, re.search(r"endpoints ~\((\S+), (\S+)\)", out).groups())
    assert math.isclose(hi, 2**600.5, rel_tol=1e-15) and lo == -hi
    assert f"canonical geodesic a=1 b=0 c=0 d=-{HUGE}" in out
    # endpoints +-2^1050.5 are past the float range
    code, _, err = run(capsys, "classify", "--coeffs", f"1,0,0,-{2**2101}")
    assert code == 2 and "float range" in err


def test_classify_of_coefficients_spanning_past_the_float_range(capsys):
    # a = 1 and d = -2^1901 share no float scale, yet the endpoints
    # +-2^950.5 are floats
    code, out, err = run(capsys, "classify", "--coeffs", f"1,0,0,-{2**1901}")
    assert code == 0 and err == ""
    lo, hi = map(float, re.search(r"endpoints ~\((\S+), (\S+)\)", out).groups())
    assert math.isclose(hi, 2**950.5, rel_tol=1e-15) and lo == -hi


def test_render_of_huge_coefficients(capsys, tmp_path):
    f = tmp_path / "huge.txt"
    f.write_text(f"geodesic a=1 b=0 c=0 d=-{HUGE}\n")
    svg = tmp_path / "huge.svg"
    code, _, err = run(capsys, "render", "--curves", str(f), "-o", str(svg))
    assert code == 0 and err == ""
    # the window starts at x = -3.25 and a unit is 80 pixels
    cx, r = re.search(r'<circle cx="(\S+)" cy="\S+" r="(\S+)"', svg.read_text()).groups()
    assert float(cx) == 3.25 * 80
    assert math.isclose(float(r) / 80, 2**600.5, rel_tol=1e-15)


@pytest.mark.parametrize("text, ends", [
    # x = 3^-800
    (f"geodesic a=0 b={3**800} c=0 d=-1", (0, 0, 0, 4)),
    # y = (1 - 3^800 x) / (3^800 + 1), within 3^-800 of y = -x
    (f"hypercycle a=0 b={3**800} c={3**800 + 1} d=-1", (-3.25, 3.25, 3.25, -3.25)),
], ids=["vertical", "oblique"])
def test_render_of_lines_with_huge_coefficients(capsys, tmp_path, text, ends):
    # the coefficients span more than the float range, the line does not
    f = tmp_path / "line.txt"
    f.write_text(text + "\n")
    svg = tmp_path / "line.svg"
    code, _, err = run(capsys, "render", "--curves", str(f), "-o", str(svg))
    assert code == 0 and err == ""
    x1, y1, x2, y2 = map(float, re.search(
        r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)" fill="none"', svg.read_text()
    ).groups())
    # the window's corner (-3.25, 3.25) is pixel (0, 0), and a unit is 80 pixels
    assert (x1 / 80 - 3.25, 3.25 - y1 / 80, x2 / 80 - 3.25, 3.25 - y2 / 80) == ends
