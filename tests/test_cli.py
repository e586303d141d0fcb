import json
import math
import os
import re
from fractions import Fraction

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
        assert "--horocycle center,size: " in err

    def test_inexact_banner(self, capsys):
        code, out, _ = run(capsys, "--inexact", "classify", "--horocycle", "0,0.5")
        assert code == 0
        assert "exact-predicate guarantees disabled" in out
        # an inexact center prints as the float it is, not as its binary fraction
        code, out, _ = run(capsys, "--inexact", "classify", "--horocycle", "0.3,0.5")
        assert code == 0 and "Horocycle center 0.3 radius 0.5\n" in out

    @pytest.mark.parametrize("value", ["-.5,1", "-.25e1,1/2"])
    def test_signed_float_value_after_a_space(self, capsys, value):
        # the flag grammar, not argparse, reads a value that starts with
        # "-.", as it does the same value after "="
        spaced = run(capsys, "--inexact", "classify", "--horocycle", value)
        joined = run(capsys, "--inexact", "classify", f"--horocycle={value}")
        assert spaced == joined and spaced[0] == 0 and "Horocycle center -" in spaced[1]

    def test_records_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "records", "classify", "--geodesic", "0,oo"
        )
        assert code == 0
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["kind"] == "geodesic"


class TestConstruct:
    def test_pinch_with_irrational_centers(self, capsys):
        # both pinch horocycles of these inputs have irrational centers
        code, out, _ = run(capsys, "construct", "pinch", "--first", "0,1", "--second", "5,2")
        assert code == 0
        assert out.count("unit-norm a=") == 2
        assert [line for line in out.splitlines() if line.startswith("Horocycle")] == [
            "Horocycle center -12.071067811865477 radius 36.42766952966369",
            "Horocycle center 2.0710678118654755 radius 1.0723304703363117",
        ]
        code, out, _ = run(capsys, "--format", "records", "construct", "pinch",
                           "--first", "0,1", "--second", "5,2")
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and [r["kind"] for r in recs] == ["horocycle", "horocycle"]
        assert all(isinstance(r["a"], float) for r in recs)

    def test_pinch_with_rational_centers(self, capsys):
        code, out, _ = run(capsys, "construct", "pinch", "--first", "0,1", "--second", "6,1")
        assert code == 0
        assert out.splitlines() == ["horocycle a=2 b=-12 c=-9 d=18"] * 2


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

    def test_inexact_point_under_a_fault_past_the_float_range(self, capsys):
        n = 3**700
        code, out, err = run(
            capsys, "--inexact", "earthquake", "--fault", f"{n + 1}/{n},-1", "--shear", "2",
            "apply", "0.5,2.0",
        )
        assert code == 0, err
        x, y = (float(v) for v in out.strip().splitlines()[-1].split(" -> ")[1].split(","))
        code, out, _ = run(
            capsys, "earthquake", "--fault", f"{n + 1}/{n},-1", "--shear", "2", "apply", "1/2,2",
        )
        exact = [Fraction(v) for v in out.strip().split(" -> ")[1].split(",")]
        assert math.isclose(x, exact[0], rel_tol=1e-12) and math.isclose(y, exact[1], rel_tol=1e-12)

    def test_inexact_image_past_the_float_range_is_refused(self, capsys):
        code, out, err = run(
            capsys, "--inexact", "earthquake", "--fault", "0,oo", "--shear", str(2**1100),
            "apply", "-0.5,2.0",
        )
        assert code == 2 and "->" not in out
        assert "outside the float range" in err and "Traceback" not in err


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

    def test_malformed_seed_env_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERK_SEED", "x")
        code, out, err = run(capsys, "verify", "order")
        assert code == 2 and out == ""
        assert "HYPERK_SEED integer expected, got 'x'" in err and "Traceback" not in err


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

    def test_fixed_endpoint_limit_is_exact(self, capsys):
        code, out, _ = run(capsys, "family", "--preset", "fixed-endpoint")
        assert code == 0
        assert out.strip() == "limit: hypercycle-or-geodesic hypercycle a=6 b=0 c=-5 d=-6"
        code, out, _ = run(capsys, "--format", "records", "family", "--preset", "fixed-endpoint")
        assert code == 0
        assert json.loads(out) == {"limit": "hypercycle-or-geodesic", "kind": "hypercycle",
                                   "a": "6", "b": "0", "c": "-5", "d": "-6"}


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

    def test_realize_answers_changed_counts_with_irrational_endpoints(self, capsys, tmp_path):
        # the hypercycle ends at +-sqrt(2), which the isometry search cannot
        # take; it crosses the first geodesic and touches the second, so the
        # swap is answered without the search
        f = tmp_path / "curves.txt"
        f.write_text(
            "hypercycle a=1 b=0 c=-1 d=-2\n"
            "geodesic a=1 b=-6 c=0 d=5\n"
            "geodesic a=1 b=0 c=0 d=-4\n"
        )
        code, out, err = run(capsys, "graph", "--curves", str(f), "--mixed", "--realize", "0,2,1")
        assert code == 0 and err == ""
        assert out.endswith("no realizing isometry\n")

    def test_realize_beside_irrational_endpoints(self, capsys, tmp_path):
        # the hypercycle ends at +-sqrt(2); the geodesics give the search
        # three rational boundary points, and z -> -conj(z) swaps them
        f = tmp_path / "curves.txt"
        f.write_text(
            "hypercycle a=1 b=0 c=-1 d=-2\n"
            "geodesic a=1 b=-4 c=0 d=3\n"
            "geodesic a=1 b=4 c=0 d=3\n"
        )
        code, out, err = run(capsys, "graph", "--curves", str(f), "--mixed", "--realize", "0,2,1")
        assert code == 0 and err == ""
        assert out.endswith("realizing isometry Isometry-[1 0; 0 1]\n")

    @pytest.mark.parametrize("text, perm, printed", [
        ("horocycle a=1 b=0 c=-1 d=0\nhorocycle a=1 b=-2 c=-1 d=1\n"
         "horocycle a=1 b=-4 c=-1 d=4\nhorocycle a=0 b=0 c=1 d=-2\n",
         "2,1,0,3", "Isometry-[1 2; 0 1]"),
        ("hypercycle a=3 b=-12 c=-8 d=9\nhypercycle a=15 b=-6 c=-8 d=0\n"
         "horocycle a=3 b=-12 c=-2 d=12\nhorocycle a=27 b=-18 c=-2 d=3\n",
         "1,0,3,2", "Isometry+[1 -1; 2 -1]"),
    ])
    def test_realizing_record_reads_back(self, capsys, tmp_path, text, perm, printed):
        # the record holds the coprime entries and the orientation: read back
        # into an Isometry, it is the printed one and maps every curve of the
        # file onto its image under the permutation
        from hyperk.model import Isometry, parse_curve_text

        f = tmp_path / "curves.txt"
        f.write_text(text)
        code, out, _ = run(capsys, "graph", "--curves", str(f), "--mixed", "--realize", perm)
        assert code == 0 and out.endswith(f"realizing isometry {printed}\n")
        code, out, _ = run(capsys, "--format", "records", "graph", "--curves", str(f), "--mixed",
                           "--realize", perm)
        record = json.loads(out.splitlines()[-1])["realizing"]
        assert code == 0 and sorted(record) == ["matrix", "reversing"]
        iso = Isometry(*record["matrix"], reversing=record["reversing"])
        assert repr(iso) == printed and math.gcd(*record["matrix"]) == 1
        curves = [parse_curve_text(line) for line in text.splitlines()]
        images = [curves[int(j)] for j in perm.split(",")]
        assert all(iso.apply_curve(c) == t for c, t in zip(curves, images))


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
    ("graph", "--curves", "TWO", "--realize", "0"),
    ("graph", "--curves", "TWO", "--realize", "0,5"),
    ("graph", "--curves", "TWO", "--realize", "1,1"),
    ("graph", "--curves", "TWO", "--realize", "-1,0"),
    ("graph", "--curves", "TWO", "--realize", "a,b"),
    ("graph", "--curves", "MIXED"),
    ("graph", "--curves", "MIXED", "--mixed", "--autos", "--cap", "-1"),
    ("earthquake", "--fault", "0,oo", "--shear", "2", "image", "1"),
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "abc"),
    ("earthquake", "--fault", "0", "--shear", "2", "apply", "1"),
    ("earthquake", "--fault", "0,oo", "--shear", "x", "apply", "1"),
    ("classify", "--geodesic", "a,1"),
    ("construct", "pinch", "--first", "a,1", "--second", "1,1"),
    ("intersect", "--first-geodesic", "0,1", "--second-geodesic", "a,1"),
    ("family", "--horocycle", "0,x", "--hypercycle", "4,8,5,2"),
    ("--inexact", "classify", "--horocycle", "0,abc"),
    ("construct", "equidistant", "--first", "0,1", "--distance", "abc"),
    ("family", "--horocycle", "0,0.5", "--hypercycle", "4,8,5,2"),
    ("earthquake", "--fault", "0,oo", "--shear", "1.5", "apply", "1"),
    ("classify", "--coeffs", "1,0,-1,0,"),
    ("classify", "--geodesic", "0.5,1"),
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "0.5"),
    ("--inexact", "family", "--horocycle", "0,0.5", "--hypercycle", "4,8,5,2"),
    ("classify", "--curve", "horocycle x=1 b=0 c=-1 d=0"),
    ("graph", "--curves", "BADKEY"),
    ("--inexact", "earthquake", "--fault", "0,oo", "--shear", "2", "apply", "1e400,1"),
    ("--inexact", "intersect", "--first-horocycle", "0,inf", "--second-geodesic", "0,1"),
    ("--inexact", "classify", "--horocycle", "-inf,1"),
    ("--inexact", "classify", "--geodesic", "-Infinity,0"),
    ("classify", "--horocycle", "-.5,1"),
    ("--inexact", "earthquake", "--fault", "0,oo", "--shear", "2", "apply", "-nan"),
    ("render", "--x-min", "5", "--x-max", "1", "-o", "a.svg"),
    ("render", "--height", "-1", "-o", "a.svg"),
    ("render", "--x-max", "inf", "-o", "a.svg"),
    ("render", "--preset", "dyadic", "--x-min", "5", "--x-max", "1", "-o", "a.svg"),
    ("render", "--preset", "empty", "--height", "2", "-o", "a.svg"),
]

#: what the error message says, for the rows whose message names the flag
SAYS = {
    ("graph", "--curves", "TWO", "--realize", "0"): "[0] is not a permutation of the 2 vertices",
    ("graph", "--curves", "TWO", "--realize", "0,5"): "[0, 5] is not a permutation",
    ("graph", "--curves", "TWO", "--realize", "1,1"): "[1, 1] is not a permutation",
    ("graph", "--curves", "TWO", "--realize", "-1,0"): "[-1, 0] is not a permutation",
    ("graph", "--curves", "TWO", "--realize", "a,b"): "--realize i,j,... expected, got 'a'",
    ("graph", "--curves", "MIXED"): "curves of mixed kinds; pass --mixed to build a mixed graph",
    ("graph", "--curves", "MIXED", "--mixed", "--autos", "--cap", "-1"):
        "automorphism cap -1 is negative",
    ("earthquake", "--fault", "0,oo", "--shear", "2", "image", "1"):
        "image p,q expected, got '1'",
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "abc"):
        "apply x,y or p/q or oo expected, got 'abc'",
    ("earthquake", "--fault", "0", "--shear", "2", "apply", "1"): "--fault p,q expected, got '0'",
    ("earthquake", "--fault", "0,oo", "--shear", "x", "apply", "1"):
        "--shear p/q expected, got 'x'",
    ("classify", "--geodesic", "a,1"): "--geodesic p,q expected, got 'a'",
    ("construct", "pinch", "--first", "a,1", "--second", "1,1"):
        "--first center,size expected, got 'a'",
    ("intersect", "--first-geodesic", "0,1", "--second-geodesic", "a,1"):
        "--second-geodesic p,q expected, got 'a'",
    ("family", "--horocycle", "0,x", "--hypercycle", "4,8,5,2"):
        "--horocycle center,size expected, got 'x'",
    ("--inexact", "classify", "--horocycle", "0,abc"): "--horocycle center,size expected, got 'abc'",
    ("construct", "equidistant", "--first", "0,1", "--distance", "abc"):
        "--distance d expected, got 'abc'",
    ("family", "--horocycle", "0,0.5", "--hypercycle", "4,8,5,2"):
        "--horocycle center,size: '0.5' is not a rational p/q; pass --inexact to allow floats",
    ("earthquake", "--fault", "0,oo", "--shear", "1.5", "apply", "1"):
        "--shear p/q: '1.5' is not a rational p/q",
    ("classify", "--coeffs", "1,0,-1,0,"): "--coeffs a,b,c,d expected, got '1,0,-1,0,'",
    ("classify", "--geodesic", "0.5,1"): "--geodesic p,q: '0.5' is not a rational p/q",
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "0.5"):
        "apply x,y or p/q or oo: '0.5' is not a rational p/q",
    ("--inexact", "family", "--horocycle", "0,0.5", "--hypercycle", "4,8,5,2"):
        "disj_family needs exact curves",
    ("classify", "--curve", "horocycle x=1 b=0 c=-1 d=0"):
        "--curve kind a=A b=B c=C d=D: bad curve text 'horocycle x=1 b=0 c=-1 d=0'",
    ("graph", "--curves", "BADKEY"): "bad curve text 'horocycle x=1 b=0 c=-1 d=0'",
    ("--inexact", "earthquake", "--fault", "0,oo", "--shear", "2", "apply", "1e400,1"):
        "apply x,y: '1e400' is not a finite number",
    ("--inexact", "intersect", "--first-horocycle", "0,inf", "--second-geodesic", "0,1"):
        "--first-horocycle center,size: 'inf' is not a finite number",
    ("--inexact", "classify", "--horocycle", "-inf,1"):
        "--horocycle center,size: '-inf' is not a finite number",
    ("--inexact", "classify", "--geodesic", "-Infinity,0"):
        "--geodesic p,q: '-Infinity' is not a finite number",
    ("classify", "--horocycle", "-.5,1"):
        "--horocycle center,size: '-.5' is not a rational p/q; pass --inexact to allow floats",
    ("--inexact", "earthquake", "--fault", "0,oo", "--shear", "2", "apply", "-nan"):
        "apply x,y or p/q or oo: '-nan' is not a finite number",
    ("render", "--x-min", "5", "--x-max", "1", "-o", "a.svg"):
        "scene window needs finite x_min < x_max and height > 0, got x_min=5.0, x_max=1.0",
    ("render", "--height", "-1", "-o", "a.svg"): "height > 0, got x_min=-3.0, x_max=3.0, height=-1.0",
    ("render", "--x-max", "inf", "-o", "a.svg"): "x_max=inf",
    ("render", "--preset", "dyadic", "--x-min", "5", "--x-max", "1", "-o", "a.svg"):
        "--x-min does not apply to --preset dyadic",
    ("render", "--preset", "empty", "--height", "2", "-o", "a.svg"):
        "--height does not apply to --preset empty",
}

#: curve files that MALFORMED names by placeholder
CURVE_FILES = {
    "BADTEXT": "horocycle a=1 b=0\n",
    "DUPLICATES": "horocycle a=1 b=0 c=-1 d=0\nhorocycle a=1 b=0 c=-1 d=0\n",
    "EMPTY": "# no curves\n",
    "FARLINE": f"geodesic a=0 b=1 c=0 d=-{2**1100}\n",  # x = 2^1100
    "FAROBLIQUE": f"hypercycle a=0 b=1 c=1 d=-{2**1100}\n",  # y = 2^1100 - x
    "TWO": "geodesic a=1 b=0 c=0 d=-1\ngeodesic a=0 b=1 c=0 d=0\n",  # crossing: not adjacent
    "MIXED": "geodesic a=1 b=0 c=0 d=-1\nhorocycle a=1 b=0 c=-1 d=0\n",
    "BADKEY": "horocycle x=1 b=0 c=-1 d=0\n",
}


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2_without_traceback(capsys, tmp_path, argv):
    files = {"a.svg": tmp_path / "a.svg"}  # a row that wrongly renders writes here
    for name, text in CURVE_FILES.items():
        files[name] = tmp_path / name
        files[name].write_text(text)
    says = SAYS.get(argv, "")
    argv = [str(files.get(a, a)) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err and says in err


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
