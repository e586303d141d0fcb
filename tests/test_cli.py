import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hyperk
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

    def test_inexact_banner(self, capsys):
        # there is no --inexact flag: argparse refuses it as an unknown
        # option, and a decimal answer carries no note
        code, out, err = run(capsys, "--inexact", "classify", "--horocycle", "0,0.5")
        assert code == 2 and out == "" and "unrecognized arguments: --inexact" in err
        code, out, _ = run(capsys, "classify", "--horocycle", "0,0.5")
        assert code == 0 and out.startswith("Horocycle center 0 radius 1/2\n")
        assert "--inexact" not in out and "note" not in out

    def test_decimal_needs_no_flag(self, capsys):
        # a decimal is read at its exact value; one that underflows is
        # refused under its flag's grammar, with no flag to suggest
        code, out, _ = run(capsys, "classify", "--horocycle", "0,0.5")
        assert code == 0 and out.startswith("Horocycle center 0 radius 1/2\n")
        code, _, err = run(capsys, "classify", "--horocycle", "0,1e-400")
        assert code == 2
        assert "--horocycle center,size: '1e-400' is nonzero but below the float range" in err
        assert "--inexact" not in err

    @pytest.mark.parametrize("value", ["-.5,1", "-.25e1,1/2"])
    def test_signed_float_value_after_a_space(self, capsys, value):
        # the flag grammar, not argparse, reads a value that starts with
        # "-.", as it does the same value after "="
        spaced = run(capsys, "classify", "--horocycle", value)
        joined = run(capsys, "classify", f"--horocycle={value}")
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
        # both pinch horocycles of these inputs have irrational centers,
        # -5 -+ 5 sqrt(2): each prints its exact centre and size
        code, out, err = run(capsys, "construct", "pinch", "--first", "0,1", "--second", "5,2")
        assert code == 0 and err == "" and out.splitlines() == [
            "horocycle center=(-10-sqrt(200))/2 size=(75+5*sqrt(200))/4",
            "horocycle center=(-10+sqrt(200))/2 size=(75-5*sqrt(200))/4",
        ]
        code, out, _ = run(capsys, "--format", "records", "construct", "pinch",
                           "--first", "0,1", "--second", "5,2")
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and recs == [
            {"kind": "horocycle", "center": "(-10-sqrt(200))/2", "size": "(75+5*sqrt(200))/4"},
            {"kind": "horocycle", "center": "(-10+sqrt(200))/2", "size": "(75-5*sqrt(200))/4"},
        ]

    def test_pinch_with_rational_centers(self, capsys):
        code, out, _ = run(capsys, "construct", "pinch", "--first", "0,1", "--second", "6,1")
        assert code == 0
        assert out.splitlines() == ["horocycle a=2 b=-12 c=-9 d=18"] * 2

    def test_equidistant_pair(self, capsys):
        # the two hypercycles at distance 1 from the geodesic 0 -> 1, the
        # float distance read at its exact binary value
        code, out, _ = run(capsys, "construct", "equidistant", "--first", "0,1", "--distance", "1")
        assert code == 0 and out.splitlines() == [
            "hypercycle a=2251799813685248 b=-2251799813685248 c=-2646317828889793 d=0",
            "hypercycle a=2251799813685248 b=-2251799813685248 c=2646317828889793 d=0",
        ]

    def test_dyadic_as_text_and_records(self, capsys):
        # level 0 from n = -2 to 2: five horocycles of diameter 1, tangent
        # at the four midpoints
        code, out, _ = run(capsys, "construct", "dyadic")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 9
        assert lines[2] == "horocycle a=1 b=0 c=-1 d=0"
        assert lines[5:] == [f"tangency {x} + i*1/2" for x in ("-3/2", "-1/2", "1/2", "3/2")]
        code, out, _ = run(capsys, "--format", "records", "construct", "dyadic")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(records) == 9
        assert records[2] == {"a": "1", "b": "0", "c": "-1", "d": "0", "kind": "horocycle"}
        assert records[-1] == {"tangency": ["3/2", "1/2"]}


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

    def test_irrational_points_print_their_floats(self, capsys):
        # the geodesics over (-1, 3) and (-3, 1) cross at (0, sqrt(3)),
        # held exactly: the record prints its floats, x as 0.0 in either order
        for first, second in (("-1,3", "-3,1"), ("-3,1", "-1,3")):
            code, out, _ = run(capsys, "--format", "records", "intersect",
                               "--first-geodesic", first, "--second-geodesic", second)
            assert code == 0 and json.loads(out)["pattern"]["points"] == [[0.0, math.sqrt(3)]]
            assert "-0.0" not in out

    @pytest.mark.parametrize("first, second", [
        (("--first-hypercycle", "-1,1,0,2"), ("--second-hypercycle", "-1,1,0.0,2.0")),
        (("--first-horocycle", "0,1"), ("--second-horocycle", "0.0,1.0")),
        (("--first-horocycle", "0.0,1.0"), ("--second-horocycle", "0.0,1.0")),
        (("--first-horocycle", "oo,2.0"), ("--second-horocycle", "oo,2")),
    ])
    def test_a_curve_and_its_float_copy_are_equal(self, capsys, first, second):
        # a decimal copy is read at its exact value: it is the curve itself
        code, out, _ = run(capsys, "intersect", *first, *second)
        assert code == 0
        assert out.splitlines()[-2:] == ["equal curves", "pair type EQUAL"]


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

    def test_image_of_geodesics(self, capsys):
        # the fault 0 -> oo fixes the positive side and doubles the negative
        # one: 1 -> 2 stays, -1 -> 3 becomes -2 -> 3
        code, out, _ = run(
            capsys, "earthquake", "--fault", "0,oo", "--shear", "2", "image", "1,2", "-1,3",
        )
        assert code == 0
        assert out.splitlines() == [
            "geodesic a=1 b=-3 c=0 d=2 -> geodesic a=1 b=-3 c=0 d=2",
            "geodesic a=1 b=-2 c=0 d=-3 -> geodesic a=1 b=-1 c=0 d=-6",
        ]

    def test_certify_a_satisfiable_file(self, capsys, tmp_path):
        # tangent horocycles of radius 1 at -2 and -4; the shear doubles
        # both centres, and radii 1 and 4 keep them tangent: 4^2 = 4 * 1 * 4
        f = tmp_path / "tangent.txt"
        f.write_text("horocycle a=1 b=4 c=-2 d=4\nhorocycle a=1 b=8 c=-2 d=16\n")
        argv = ("earthquake", "--fault", "0,oo", "--shear", "2", "certify", "--curves", str(f))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "satisfiable: radii 1, 4\n"
        code, out, _ = run(capsys, "--format", "records", *argv)
        record = json.loads(out)
        assert code == 0 and record["result"] == "satisfiable" and record["radii"] == ["1", "4"]

    def test_inexact_point_under_a_fault_past_the_float_range(self, capsys):
        # a decimal point, once taken as floats, is read at its exact value:
        # its image is the exact image of the rational point
        n = 3**700
        code, out, err = run(
            capsys, "earthquake", "--fault", f"{n + 1}/{n},-1", "--shear", "2",
            "apply", "0.5,2.0",
        )
        assert code == 0, err
        image = out.strip().split(" -> ")[1]
        code, out, _ = run(
            capsys, "earthquake", "--fault", f"{n + 1}/{n},-1", "--shear", "2", "apply", "1/2,2",
        )
        assert code == 0 and out.strip().split(" -> ")[1] == image
        x, y = (Fraction(v) for v in image.split(","))
        assert x.denominator > 2**1000 and y > 0

    def test_decimal_image_past_the_float_range_is_exact(self, capsys):
        code, out, err = run(
            capsys, "earthquake", "--fault", "0,oo", "--shear", str(2**1100),
            "apply", "-0.5,2.0",
        )
        assert code == 0 and err == ""
        assert out == f"-0.5,2.0 -> {-(2**1099)},{2**1101}\n"


class TestVerifyCommand:
    def test_dyadic_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "dyadic", "--depth", "6")
        assert code == 0
        assert "[pass]" in out

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "nosuchsuite")
        assert code == 2

    def test_malformed_depth_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "dyadic", "--depth", "x")
        assert code == 2 and out == ""
        assert "expected a nonnegative integer, got 'x'" in err

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
    # command lines written for the removed --inexact flag: argparse
    # refuses the flag before any value is read
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
    ("classify", "--coeffs", "1,0,-1,0,"),
    ("--inexact", "family", "--horocycle", "0,0.5", "--hypercycle", "4,8,5,2"),
    ("classify", "--curve", "horocycle x=1 b=0 c=-1 d=0"),
    ("graph", "--curves", "BADKEY"),
    ("--inexact", "earthquake", "--fault", "0,oo", "--shear", "2", "apply", "1e400,1"),
    ("--inexact", "intersect", "--first-horocycle", "0,inf", "--second-geodesic", "0,1"),
    ("--inexact", "classify", "--horocycle", "-inf,1"),
    ("--inexact", "classify", "--geodesic", "-Infinity,0"),
    ("--inexact", "earthquake", "--fault", "0,oo", "--shear", "2", "apply", "-nan"),
    # decimals outside the float range
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "1e400,1"),
    ("intersect", "--first-horocycle", "0,inf", "--second-geodesic", "0,1"),
    ("classify", "--horocycle", "-inf,1"),
    ("classify", "--geodesic", "-Infinity,0"),
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "-nan"),
    ("classify", "--geodesic", "1e-4000000,1"),
    # an exact meeting point past the float range, which the record prints
    ("intersect", "--first-geodesic", f"{2**1100},oo", "--second-horocycle", "oo,0.5"),
    # irrational meeting points past the float range (tools/clifuzz.py), which
    # the record prints: their floats were formed unguarded and raised
    # OverflowError, exit 1
    ("--format", "records", "intersect", "--first-hypercycle", "-1,1,1e300,2",
     "--second-geodesic", "0,oo"),
    ("--format", "records", "intersect", "--first-hypercycle", f"-1,1,-{10**308},2",
     "--second-geodesic", "0,oo"),
    ("render", "--x-min", "5", "--x-max", "1", "-o", "a.svg"),
    ("render", "--height", "-1", "-o", "a.svg"),
    ("render", "--x-max", "inf", "-o", "a.svg"),
    ("render", "--x-min", "-1e308", "-o", "a.svg"),  # a finite window, drawn past the float range
    ("render", "--preset", "dyadic", "--x-min", "5", "--x-max", "1", "-o", "a.svg"),
    ("render", "--preset", "empty", "--height", "2", "-o", "a.svg"),
    # a nonzero distance whose float underflows, once taken as 0
    ("construct", "equidistant", "--first", "0,1", "--distance", "1e-400"),
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
    ("--inexact", "classify", "--horocycle", "0,abc"): "unrecognized arguments: --inexact",
    ("construct", "equidistant", "--first", "0,1", "--distance", "abc"):
        "--distance d expected, got 'abc'",
    ("classify", "--coeffs", "1,0,-1,0,"): "--coeffs a,b,c,d expected, got '1,0,-1,0,'",
    ("--inexact", "family", "--horocycle", "0,0.5", "--hypercycle", "4,8,5,2"):
        "unrecognized arguments: --inexact",
    ("classify", "--curve", "horocycle x=1 b=0 c=-1 d=0"):
        "--curve kind a=A b=B c=C d=D: bad curve text 'horocycle x=1 b=0 c=-1 d=0'",
    ("graph", "--curves", "BADKEY"): "bad curve text 'horocycle x=1 b=0 c=-1 d=0'",
    ("--inexact", "earthquake", "--fault", "0,oo", "--shear", "2", "apply", "1e400,1"):
        "unrecognized arguments: --inexact",
    ("--inexact", "intersect", "--first-horocycle", "0,inf", "--second-geodesic", "0,1"):
        "unrecognized arguments: --inexact",
    ("--inexact", "classify", "--horocycle", "-inf,1"): "unrecognized arguments: --inexact",
    ("--inexact", "classify", "--geodesic", "-Infinity,0"): "unrecognized arguments: --inexact",
    ("--inexact", "earthquake", "--fault", "0,oo", "--shear", "2", "apply", "-nan"):
        "unrecognized arguments: --inexact",
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "1e400,1"):
        "apply x,y: '1e400' is not a finite number",
    ("intersect", "--first-horocycle", "0,inf", "--second-geodesic", "0,1"):
        "--first-horocycle center,size: 'inf' is not a finite number",
    ("classify", "--horocycle", "-inf,1"): "--horocycle center,size: '-inf' is not a finite number",
    ("classify", "--geodesic", "-Infinity,0"): "--geodesic p,q: '-Infinity' is not a finite number",
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "-nan"):
        "apply x,y or p/q or oo: '-nan' is not a finite number",
    ("classify", "--geodesic", "1e-4000000,1"):
        "--geodesic p,q: '1e-4000000' is nonzero but below the float range",
    ("intersect", "--first-geodesic", f"{2**1100},oo", "--second-horocycle", "oo,0.5"):
        "the result is outside the float range",
    ("--format", "records", "intersect", "--first-hypercycle", "-1,1,1e300,2",
     "--second-geodesic", "0,oo"): "the result is outside the float range",
    ("--format", "records", "intersect", "--first-hypercycle", f"-1,1,-{10**308},2",
     "--second-geodesic", "0,oo"): "the result is outside the float range",
    ("render", "--x-min", "5", "--x-max", "1", "-o", "a.svg"):
        "scene window needs finite x_min < x_max and height > 0, got x_min=5.0, x_max=1.0",
    ("render", "--height", "-1", "-o", "a.svg"): "height > 0, got x_min=-3.0, x_max=3.0, height=-1.0",
    ("render", "--x-max", "inf", "-o", "a.svg"): "x_max=inf",
    ("render", "--x-min", "-1e308", "-o", "a.svg"): "a scene coordinate is outside the float range",
    ("render", "--preset", "dyadic", "--x-min", "5", "--x-max", "1", "-o", "a.svg"):
        "--x-min does not apply to --preset dyadic",
    ("render", "--preset", "empty", "--height", "2", "-o", "a.svg"):
        "--height does not apply to --preset empty",
    ("construct", "equidistant", "--first", "0,1", "--distance", "1e-400"):
        "--distance d: '1e-400' is nonzero but below the float range",
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
    "BLANK": "",
}


def _run_on_files(capsys, tmp_path, argv):
    """run() with each CURVE_FILES placeholder in argv replaced by a file
    holding its text, and a.svg by a path under tmp_path."""
    files = {"a.svg": tmp_path / "a.svg"}  # a row that wrongly renders writes here
    for name, text in CURVE_FILES.items():
        files[name] = tmp_path / name
        files[name].write_text(text)
    return run(capsys, *[str(files.get(a, a)) for a in argv])


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2_without_traceback(capsys, tmp_path, argv):
    code, _, err = _run_on_files(capsys, tmp_path, argv)
    assert code == 2
    assert "Traceback" not in err and SAYS.get(argv, "") in err


#: the exit-2 rows the tests outside MALFORMED run, and two commands that
#: fail after some of their output is formed
EXIT_2_ELSEWHERE = [
    ("classify", "--coeffs", "1,0,banana,0"),
    ("--inexact", "earthquake", "--fault", "0,oo", "--shear", str(2**1100), "apply", "-0.5,2.0"),
    ("verify", "nosuchsuite"),
    ("construct", "equidistant", "--first", "-1,1", "--distance", "nan"),
    ("construct", "equidistant", "--first", "-1,1", "--distance", "-1"),
    ("graph", "--curves", "BLANK"),
    ("graph", "--curves", "MIXED", "--mixed", "--autos", "--cap", "0"),
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "-1", "x"),
]


@pytest.mark.parametrize("argv", MALFORMED + EXIT_2_ELSEWHERE, ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "records"])
def test_exit_2_leaves_stdout_empty(capsys, tmp_path, argv, fmt):
    # a refused command prints no part of an answer
    code, out, _ = _run_on_files(capsys, tmp_path, ("--format", fmt) + argv)
    assert code == 2 and out == ""


_N, _M, _T = 10**308, 3 * 10**307, 10**200

#: pinch commands whose witnesses have irrational centres, and the exact
#: answer each prints; all but the row at oo were refused as floats (exit 2
#: past the float range or below EPS, exit 3 as a circle of another kind)
PINCHES = {
    ("construct", "pinch", "--first", "300,1", "--second", "305,2"): [
        "horocycle center=(590-sqrt(200))/2 size=(75+5*sqrt(200))/4",
        "horocycle center=(590+sqrt(200))/2 size=(75-5*sqrt(200))/4",
    ],
    ("construct", "pinch", "--first", "-435/8,3/4096", "--second", "2765/8,5/4096"): [
        "horocycle center=(-83760-sqrt(9830400000))/128 size=327680000+3200*sqrt(9830400000)",
        "horocycle center=(-83760+sqrt(9830400000))/128 size=327680000-3200*sqrt(9830400000)",
    ],
    ("construct", "pinch", "--first", f"{_T},1", "--second", f"{_T + 10},2"): [
        f"horocycle center=({2 * _T - 20}-sqrt(800))/2 size=(150+5*sqrt(800))/2",
        f"horocycle center=({2 * _T - 20}+sqrt(800))/2 size=(150-5*sqrt(800))/2",
    ],
    # beside a horocycle centred at oo the size is rational
    ("construct", "pinch", "--first", "oo,2", "--second", "0,1/2"): [
        "horocycle center=-sqrt(8)/2 size=1",
        "horocycle center=sqrt(8)/2 size=1",
    ],
    # centres and sizes past the float range
    ("construct", "pinch", "--first", "0,1", "--second", f"{_N},2"): [
        f"horocycle center=(-{2 * _N}{s}sqrt({8 * _N**2}))/2 "
        f"size={3 * _N**2 // 4}{t}{_N // 4}*sqrt({8 * _N**2})" for s, t in ("-+", "+-")
    ],
    ("construct", "pinch", "--first", f"-{_N},1", "--second", "5,2"): [
        f"horocycle center=(-{4 * _N + 10}{s}sqrt({8 * _N**2 + 80 * _N + 200}))/2 "
        f"size=({3 * _N**2 + 30 * _N + 75}{t}{_N + 5}*sqrt({8 * _N**2 + 80 * _N + 200}))/4"
        for s, t in ("-+", "+-")
    ],
    ("construct", "pinch", "--first", "0,1", "--second", f"{_M}/7,2"): [
        f"horocycle center=(-{14 * _M}{s}sqrt({392 * _M**2}))/98 "
        f"size=({21 * _M**2 // 4}{t}{_M // 4}*sqrt({392 * _M**2}))/343" for s, t in ("-+", "+-")
    ],
}


@pytest.mark.parametrize("argv", PINCHES, ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "records"])
def test_pinch_is_answered_exactly(capsys, argv, fmt):
    start = time.perf_counter()
    code, out, err = run(capsys, "--format", fmt, *argv)
    assert code == 0 and err == "" and time.perf_counter() - start < 1
    if fmt == "text":
        assert out.splitlines() == PINCHES[argv]
    else:
        recs = [json.loads(line) for line in out.splitlines()]
        assert [f"{r['kind']} center={r['center']} size={r['size']}" for r in recs] == PINCHES[argv]


#: commands with decimal values, each read at its exact value, and the
#: first line of the answer
DECIMALS = {
    ("classify", "--horocycle", "0,0.5"): "Horocycle center 0 radius 1/2",
    ("classify", "--horocycle", "0.3,0.5"): "Horocycle center 3/10 radius 1/2",
    ("classify", "--horocycle", "oo,0.5"): "Horocycle center oo height 1/2",
    ("classify", "--horocycle", "-.5,1"): "Horocycle center -1/2 radius 1",
    ("classify", "--horocycle", "300,1.0"): "Horocycle center 300 radius 1",
    # a small horocycle far from 0, which a float circle read as a hypercycle
    ("classify", "--horocycle", "10.375,0.00390625"): "Horocycle center 83/8 radius 1/256",
    ("classify", "--geodesic", "0.5,1"): "Geodesic endpoints 1/2, 1",
    ("classify", "--geodesic", "0e99999,1"): "Geodesic endpoints 0, 1",
    ("earthquake", "--fault", "0,oo", "--shear", "1.5", "apply", "1"): "1 -> 1",
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "0.5"): "0.5 -> 1/2",
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "-1.5,0.25"):
        "-1.5,0.25 -> -3,1/2",
    ("family", "--horocycle", "0,0.5", "--hypercycle", "4,8,5,2"):
        "limit: horocycle horocycle a=1 b=0 c=-1 d=0",
}


@pytest.mark.parametrize("argv", DECIMALS, ids=" ".join)
@pytest.mark.parametrize("fmt", ["default", "text", "records"])
def test_decimal_values_are_answered_exactly(capsys, argv, fmt):
    flags = () if fmt == "default" else ("--format", fmt)
    code, out, err = run(capsys, *flags, *argv)
    assert code == 0 and err == ""
    if fmt != "records":
        assert out.splitlines()[0] == DECIMALS[argv]
    else:
        assert [json.loads(line) for line in out.splitlines()]


def test_closed_stdout_exits_4_without_traceback():
    # the reader closes the pipe before the command writes its output, as
    # `hyperk verify order | head -0` does
    src = os.path.dirname(os.path.dirname(hyperk.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-m", "hyperk.cli", "verify", "order"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4 and err == b""


def test_closed_stdout_in_process_exits_4(monkeypatch):
    # the same on a pipe of this process, whose read end is closed first:
    # stdout is pointed at devnull, so later flushes write nowhere
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["classify", "--geodesic", "0,1"]) == 4
        print("more output")
        stdout.flush()


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


def _clifuzz():
    path = Path(__file__).resolve().parent.parent / "tools" / "clifuzz.py"
    spec = importlib.util.spec_from_file_location("clifuzz", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLIFUZZ = _clifuzz()


@pytest.mark.parametrize("argv", CLIFUZZ.COMMANDS, ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "records"])
def test_every_command_the_fuzzer_mutates_is_answered(capsys, tmp_path, argv, fmt):
    # the commands of tools/clifuzz.py are valid: each mutant starts from an
    # answer
    code, out, err = run(capsys, "--format", fmt, *CLIFUZZ.with_paths(argv, tmp_path))
    assert code == 0 and out and err == ""
