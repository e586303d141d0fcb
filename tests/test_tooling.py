"""Checks on the package as a whole: what importing it loads, and what its
modules import."""

import ast
import collections
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperk

PACKAGE = Path(hyperk.__file__).parent


def _fresh(code):
    """The last line a fresh interpreter running `code` prints."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def _modules_loaded_by(code, watched=()):
    """The hyperk modules, and the modules named in `watched`, that a fresh
    interpreter holds after running `code`."""
    return set(ast.literal_eval(_fresh(
        code + "\nimport sys\n"
        "print(sorted(m for m in sys.modules\n"
        f"             if m == 'hyperk' or m.startswith('hyperk.') or m in {tuple(watched)!r}))\n"
    )))


def test_import_does_not_load_scipy():
    # no module imports scipy: the realizability solver is exact and pure Python
    assert _fresh("import sys, hyperk\nprint('scipy' in sys.modules)\n") == "False"


def test_free_radii_are_solved_without_scipy_or_numpy():
    # the 75/64 ... 15/11 chain leaves a free radius, which floats at 1 fail
    code = (
        "import sys\n"
        "from hyperk import (BoundaryPoint, Q, Satisfiable, instance_from_horocycles,\n"
        "                    make_horocycle, tangency_realizability)\n"
        "from hyperk import earthquake\n"
        "specs = [('75/64', '35/512'), ('5/3', '1805/2016'), ('20/13', '280/61009'),\n"
        "         ('7/5', '18/125'), ('15/11', '45125/27104')]\n"
        "hs = [make_horocycle(BoundaryPoint.finite(Q(c)), Q(r)) for c, r in specs]\n"
        "calls = []\n"
        "solve = earthquake._free_values\n"
        "earthquake._free_values = lambda *a: calls.append(a) or solve(*a)\n"
        "res = tangency_realizability(instance_from_horocycles(hs, [h.center for h in hs]))\n"
        "assert isinstance(res, Satisfiable) and res.exact and calls\n"
        "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))\n"
    )
    assert _fresh(code) == "[]"


def _imported_top_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_scipy_or_numpy():
    # function-local imports count too
    found = {
        p.name: hits
        for p in sorted(PACKAGE.glob("*.py"))
        if (hits := _imported_top_names(ast.parse(p.read_text(encoding="utf-8")))
            & {"scipy", "numpy"})
    }
    assert found == {}
    tree = ast.parse("def f():\n    from scipy.optimize import linprog\n    import numpy as np\n")
    assert _imported_top_names(tree) == {"scipy", "numpy"}


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast and dis, which cost every CLI call
    found = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if "dataclasses" in _imported_top_names(ast.parse(p.read_text(encoding="utf-8")))]
    assert found == []


def test_import_loads_no_layer_module():
    assert _modules_loaded_by("import hyperk") == {"hyperk"}


CLI_BASE = {"hyperk", "hyperk.cli", "hyperk._rational", "hyperk.errors", "hyperk.model"}

#: standard modules that no CLI call needs, but for json under --format records
CLI_WATCHED = ("dataclasses", "inspect", "json")


@pytest.mark.parametrize("argv, layers", [
    (["classify", "--horocycle", "oo,2"], set()),
    (["construct", "equidistant", "--first", "0,oo"], set()),
    (["intersect", "--first-geodesic", "-1,1", "--second-geodesic", "0,oo"],
     {"_record", "predicates"}),
    (["earthquake", "--fault", "0,oo", "--shear", "2", "apply", "1", "1,1"],
     {"_record", "predicates", "earthquake"}),
    (["earthquake", "--fault", "0,oo", "--shear", "2", "certify"],
     {"_record", "predicates", "earthquake"}),
    (["family", "--preset", "ray"], {"_record", "predicates", "constructions"}),
    (["render", "--preset", "figure-one", "-o", "FILE"],
     {"_record", "predicates", "earthquake", "render"}),
    (["verify", "order"], {"_record", "predicates", "verify"}),
    (["verify", "dyadic", "--depth", "2"], {"_record", "predicates", "constructions", "verify"}),
    (["verify", "nosuch"], set()),
    (["graph", "--curves", "MISSING"], set()),
    (["--format", "records", "classify", "--horocycle", "oo,2"], set()),
    (["--format", "records", "family", "--preset", "ray"],
     {"_record", "predicates", "constructions"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_command_loads_only_its_layers(tmp_path, argv, layers):
    # cli.main in a fresh interpreter loads what `python -m hyperk.cli` does;
    # argparse refuses the unknown suite, and `graph` the missing file, with
    # exit 2
    code = 2 if {"nosuch", "MISSING"} & set(argv) else 0
    files = {"FILE": tmp_path / "out.svg", "MISSING": tmp_path / "missing.txt"}
    argv = [str(files.get(a, a)) for a in argv]
    loaded = _modules_loaded_by(
        "import contextlib, io\nfrom hyperk import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == {code}",
        CLI_WATCHED,
    )
    json = {"json"} if argv[:2] == ["--format", "records"] else set()
    assert loaded == CLI_BASE | {f"hyperk.{m}" for m in layers} | json


def test_cli_suite_choices_are_the_verify_suites():
    from hyperk import cli, verify

    assert cli.VERIFY_SUITES == (*verify.SUITES, "all")


def test_cli_graph_cap_default_is_the_graphs_default():
    # the parser keeps its own literal, so that parsing imports no graphs
    from hyperk import cli, graphs

    assert cli.build_parser().parse_args(["graph", "--curves", "F"]).cap == graphs.DEFAULT_CAP


#: every name the package exported when it imported all its modules, by the
#: module that defines it
EXPORTED = {
    "_rational": "Q q_from_str q_str",
    "errors": "DegenerateResultError HyperkError InvalidInputError NoSolutionError",
    "model": "INFINITY BoundaryPoint Curve CurveKind GeneralizedCircle Isometry "
             "QuadraticPoint UHPPoint curve_from_circle curve_from_coeffs distance_to_geodesic "
             "equidistant_pair make_geodesic make_horocycle make_hypercycle "
             "parse_curve_text rational_points triple_normalizer two_point_normalizer",
    "predicates": "HorocycleOrder HypercyclePairType IntersectionPattern between_tangent "
                  "geodesics_linked horocycle_leq hypercycle_pair_type intersection_pattern "
                  "linked pair_type_from_pattern same_endpoints",
    "constructions": "CenterSwap ContinuousFamily DyadicFamily FoliatesComponent "
                     "FourGeodesicConfig HorocycleLimit HypercycleOrGeodesicLimit "
                     "PinchWitness classify_family_limit disj_family dyadic_family "
                     "fixed_endpoint_family four_geodesic_config hyp1_witness "
                     "normalizer_from_images pinch_pair ray_family sigma_center_swap "
                     "witness_family_search",
    "earthquake": "Constraint EarthquakeMap PairRequirement PointwiseImageResult "
                  "RealizabilityInstance Satisfiable Unsatisfiable eq_apply "
                  "eq_geodesic_image figure_one_configuration figure_one_images "
                  "instance_from_horocycles pointwise_image_is_curve tangency_realizability",
    "graphs": "DisjointnessGraph GraphAutomorphism GraphClass LinkCheckResult automorphisms "
              "build_graph induced_permutation isometry_matching isometry_realizing "
              "link_preserving_check",
    "render": "SvgScene render_panels render_scene write_svg",
    "verify": "PropertyResult SUITES run_suite",
}


def test_every_exported_name_resolves_to_its_home_module():
    homes = {name: module for module, names in EXPORTED.items() for name in names.split()}
    assert len(homes) == 87
    assert sorted(hyperk.__all__) == sorted(homes)
    assert set(homes) <= set(dir(hyperk))
    for name, module in homes.items():
        home = importlib.import_module(f"hyperk.{module}")
        assert getattr(hyperk, name) is vars(home)[name], name
    assert hyperk.__version__ == "1.0.0"


def test_unknown_name_raises_attribute_error():
    # a typo in the lazy table would surface here, not at import
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperk.no_such_name  # noqa: B018
    assert not hasattr(hyperk, "no_such_name")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = {
        p.name: found
        for p in modules
        if (found := _unused_imports(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert unused == {}


def test_unused_import_check_sees_unused_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import List, Tuple as T\n"
        "def f(x: List[int]):\n"
        "    from math import sqrt\n"
        "    return x\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "T"), (5, "sqrt")]


def _dead_helpers(trees):
    """(module, name) of every module-level private function or class in
    `trees` (module name -> parsed source) whose name no code reads outside
    its own definition, as a name or as an attribute.  Names are matched
    across modules, so a helper called as `model._image` counts."""
    def reads(node):
        return collections.Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))

    total = sum((reads(tree) for tree in trees.values()), collections.Counter())
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and total[node.name] == reads(node)[node.name]
    )


def test_no_private_helper_is_dead():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert len(trees) >= 10
    assert _dead_helpers(trees) == []


def test_dead_helper_check_sees_unread_helpers():
    trees = {
        "a": ast.parse(
            "def _called(): return 1\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Unbuilt: pass\n"
            "def _read_elsewhere(): pass\n"
            "def __getattr__(name): return _called()\n"
        ),
        "b": ast.parse("from . import a\nx = a._read_elsewhere\n"),
    }
    assert _dead_helpers(trees) == [("a", "_Unbuilt"), ("a", "_recursive")]


def _asserts(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_module_checks_an_invariant_with_assert():
    # `python -O` strips assert statements, so invariants raise instead
    found = {
        p.name: lines
        for p in sorted(PACKAGE.glob("*.py"))
        if (lines := _asserts(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_assert_check_sees_nested_asserts():
    tree = ast.parse(
        "assert x\n"
        "def f(y):\n"
        "    if y:\n"
        "        assert y > 0, 'positive'\n"
        "    return [z for z in y if z]\n"
    )
    assert _asserts(tree) == [1, 4]


#: the value parsers that only the flag grammar of cli.py calls
GRAMMAR = {"BoundaryPoint.parse", "q_from_str", "_parse_number", "float", "int"}


def _grammar_calls(tree):
    """(command, callee), sorted, for every call that a top-level `cmd_*`
    function makes to a GRAMMAR name."""
    return sorted(
        (fn.name, name)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and (name := ast.unparse(node.func)) in GRAMMAR
    )


def test_cli_commands_leave_flag_values_to_the_grammar():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    commands = [fn.name for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    assert len(commands) == 8
    assert _grammar_calls(tree) == []


def test_grammar_check_sees_direct_parsers():
    tree = ast.parse(
        "def cmd_x(args):\n"
        "    d = float(args.distance)\n"
        "    return [BoundaryPoint.parse(v) for v in args.v], lambda t: int(t)\n"
        "def _helper(t):\n"
        "    return q_from_str(t)\n"
    )
    assert _grammar_calls(tree) == [
        ("cmd_x", "BoundaryPoint.parse"), ("cmd_x", "float"), ("cmd_x", "int")
    ]


#: functions that read a boundary point only as the integer pair it is
#: (oo = (1, 0)), never through `.is_infinity` or `.value`, by module
PROJECTIVE_ONLY = {
    "model.py": {"evaluate_boundary", "make_geodesic", "_hypercycle_ints",
                 "two_point_normalizer", "apply_boundary"},
    "predicates.py": {"linked"},
    "earthquake.py": {"tangency_realizability"},
}

#: reads in those functions that are not of a point: the radius system's
#: `value` method and a pair requirement's enum value
NOT_POINT_READS = [("tangency_realizability", "req.value"),
                   ("tangency_realizability", "sys.value"),
                   ("tangency_realizability", "sys.value")]


def _point_reads(tree, names):
    """(function, expression), sorted, for every `.is_infinity` or `.value`
    read inside a function, or method, named in `names`."""
    return sorted(
        (fn.name, ast.unparse(node))
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in names
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr in ("is_infinity", "value")
    )


def test_exact_point_formulas_have_no_case_for_infinity():
    reads = []
    for module, names in PROJECTIVE_ONLY.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        defined = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
        assert names <= defined, module
        reads += _point_reads(tree, names)
    assert reads == NOT_POINT_READS


def test_point_read_check_sees_infinity_cases():
    tree = ast.parse(
        "class Circle:\n"
        "    def evaluate_boundary(self, p):\n"
        "        return self.a if p.is_infinity else p.value\n"
        "def linked(p, q):\n"
        "    return [x.value for x in p + q]\n"
        "def other(p):\n"
        "    return p.is_infinity\n"
    )
    assert _point_reads(tree, {"evaluate_boundary", "linked"}) == [
        ("evaluate_boundary", "p.is_infinity"), ("evaluate_boundary", "p.value"),
        ("linked", "x.value"),
    ]


def test_boundary_points_build_no_fraction(monkeypatch):
    # a boundary point is its integer pair: reading a curve's endpoints or
    # centre, mapping a point and testing linkedness build no Fraction
    import random
    from fractions import Fraction

    from hyperk import INFINITY, BoundaryPoint, EarthquakeMap, eq_apply, linked, make_geodesic
    from hyperk.verify import rand_curve, rand_distinct_boundary, rand_isometry

    rng = random.Random(2808)
    curves = [c for c in (rand_curve(rng) for _ in range(200)) if c.exact]
    maps = [rand_isometry(rng) for _ in range(200)]
    quads = [rand_distinct_boundary(rng, 4) for _ in range(200)]
    quake = EarthquakeMap(make_geodesic(BoundaryPoint.finite(0), INFINITY), 2, "left")
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    ends = [p for c in curves if c.has_exact_endpoints for p in c.endpoints]
    centres = [c.center for c in curves]
    images = [g.apply_boundary(p) for g, p in zip(maps, ends)]
    shaken = [eq_apply(quake, p) for q in quads for p in q]
    links = [linked(q[:2], q[2:]) for q in quads]
    geodesics = [make_geodesic(*q[:2]) for q in quads]
    assert made == []
    assert len(ends) > 150 and len(images) == 200 and len(shaken) == 800
    assert sum(c is not None for c in centres) > 40 and any(links) and not all(links)
    assert sum(p != q for p, q in zip(shaken, (p for q in quads for p in q))) > 200
    assert all(g.has_exact_endpoints for g in geodesics)


def test_exact_counts_never_build_meeting_points(monkeypatch):
    # the counting predicates read only Gram signs on exact curves; building
    # the meeting points on every call was their largest cost
    from hyperk import (
        INFINITY, BoundaryPoint, Q, UHPPoint, build_graph, hypercycle_pair_type,
        intersection_pattern, make_geodesic, make_horocycle, make_hypercycle, same_endpoints,
    )
    from hyperk import predicates

    def refuse(*args):
        raise AssertionError("a count built the meeting points")

    F = BoundaryPoint.finite
    h1 = make_hypercycle(F(-1), F(1), UHPPoint(0, 2))
    h2 = make_hypercycle(F(0), F(3), UHPPoint(Q(3, 2), 2))
    g1, g2 = make_geodesic(F(-1), F(1)), make_geodesic(F(0), INFINITY)
    pair_type = hypercycle_pair_type(h1, h2)
    monkeypatch.setattr(predicates, "_meet", refuse)
    assert hypercycle_pair_type(h1, h2) is pair_type
    assert same_endpoints(h1, g1) and not same_endpoints(g1, g2)
    assert intersection_pattern(g1, g2).interior_count == 1
    hs = [make_horocycle(F(k), Q(1, 2)) for k in range(20)] + [make_horocycle(INFINITY, 1)]
    assert len(build_graph(hs).edges()) == 20 * 19 // 2 - 19
    with pytest.raises(AssertionError, match="built the meeting points"):
        intersection_pattern(g1, g2).interior_points


def test_exact_pair_counts_need_no_candidate_and_no_pattern(monkeypatch):
    # a target whose pair counts differ is answered from the Gram table
    # before any candidate isometry, and adjacency is read from the same
    # table, with no IntersectionPattern per pair
    from hyperk import INFINITY, BoundaryPoint, Q, build_graph, isometry_matching
    from hyperk import graphs, predicates
    from hyperk.model import Isometry, make_geodesic, make_horocycle

    def refuse(*args):
        raise AssertionError("the answer needed more than the pair counts")

    F = BoundaryPoint.finite
    src = [make_geodesic(F(0), F(2)), make_geodesic(F(1), F(3)), make_geodesic(F(4), F(5))]
    hs = [make_horocycle(F(k), Q(1, 2)) for k in range(6)] + [make_horocycle(INFINITY, 1)]
    monkeypatch.setattr(graphs, "_candidate_isometries", refuse)
    monkeypatch.setattr(predicates, "intersection_pattern", refuse)
    # (0, 1) cross and (1, 2) miss: any relabelling that moves the crossing
    assert isometry_matching(src, [src[0], src[2], src[1]]) is None
    assert isometry_matching(src, [src[2], src[1], src[0]]) is None
    assert isometry_matching(hs[:3], hs[:2] + [hs[6]]) is None  # (0, 2) miss, then touch
    assert len(build_graph(src).edges()) == 2 and len(build_graph(hs).edges()) == 6 * 5 // 2 - 5
    with pytest.raises(AssertionError, match="more than the pair counts"):
        # the same counts reach the search
        isometry_matching(src, [Isometry.translation(1).apply_curve(c) for c in src])


def _names(module):
    """Every name, attribute and imported name that `module` mentions."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_graphs_names_no_float_route():
    # the graph layer reads exact integer data only: it names no float
    # tolerance, no Fraction constructor, no float circle action and no
    # per-pair pattern; the predicates refuse inexact curves, so they name
    # no float tolerance and none of the float route's helpers
    names = _names("graphs.py")
    assert len(names) > 100
    assert names & {"EPS", "Q", "apply_circle", "intersection_pattern"} == set()
    names = _names("predicates.py")
    assert len(names) > 100
    assert names & {"EPS", "_int_floats", "_pair_coeffs", "_same_circle"} == set()
    # a pinch witness is exact in Q(sqrt D): the constructions and the
    # suites that check them name no float tolerance and no float witness
    for module in ("constructions.py", "verify.py"):
        names = _names(module)
        assert len(names) > 100
        assert names & {"EPS", "_float_horocycle", "_horocycles_nearly_tangent"} == set()


def test_circles_take_no_exact_flag():
    # every circle is exact: neither constructor switches that off
    import inspect

    from hyperk.model import GeneralizedCircle, curve_from_coeffs

    for build in (GeneralizedCircle, curve_from_coeffs):
        assert list(inspect.signature(build).parameters) == ["a", "b", "c", "d"]


def test_points_take_no_exact_flag():
    # every point is held exactly, an irrational one in Q(sqrt D): no module
    # names a float tolerance or a float comparison, and a rational point
    # takes no flag that makes it inexact
    import inspect

    from hyperk.model import UHPPoint

    assert list(inspect.signature(UHPPoint).parameters) == ["x", "y"]
    for path in sorted(PACKAGE.glob("*.py")):
        assert _names(path.name) & {"EPS", "isclose"} == set(), path.name
        assert "exact=False" not in path.read_text(encoding="utf-8"), path.name


def test_cli_has_no_inexact_flag():
    # every decimal is read at its exact value: no flag switches that off
    from hyperk.cli import build_parser

    parser = build_parser()
    flags = {flag for action in parser._actions for flag in action.option_strings}
    assert "--format" in flags and "--inexact" not in flags
    with pytest.raises(SystemExit):
        parser.parse_args(["--inexact", "classify", "--horocycle", "0,1"])


def test_exact_candidates_build_no_image_circle(monkeypatch):
    # every exact circle is compared on integers: a hit on geodesics, a miss
    # whose wrong candidates fail, and a hit on an exact horocycle build no
    # image circle
    import random

    from hyperk import INFINITY, BoundaryPoint, isometry_matching, make_geodesic, make_horocycle
    from hyperk.model import Isometry
    from hyperk.predicates import pair_counts
    from hyperk.verify import rand_geodesic, rand_isometry

    def refuse(*args):
        raise AssertionError("an image circle was built")

    F = BoundaryPoint.finite
    rng = random.Random(2313)
    maps = [Isometry(2, 1, 1, 3, reversing=True), Isometry(2**600 + 9, 1, 2**600, 1),
            Isometry(2**600 + 1, 1, 2**600, 1, reversing=True)]
    maps += [rand_isometry(rng) for _ in range(9)]
    cases = []
    for index, g in enumerate(maps):
        curves = []
        while len(curves) < 1 + index % 5:
            c = rand_geodesic(rng)
            if c not in curves:
                curves.append(c)
        cases.append((curves, [g.apply_curve(c) for c in curves]))
    # the pair counts agree, so the search is reached
    src = [make_horocycle(F(0), 1), make_geodesic(F(1), F(3)), make_geodesic(F(4), F(5))]
    misses = [src[:2] + [make_geodesic(F(4), F(6))], src[:2] + [make_geodesic(F(5), INFINITY)]]
    assert all(pair_counts(miss) == pair_counts(src) for miss in misses)
    hit = [Isometry.translation(1).apply_curve(c) for c in src]
    monkeypatch.setattr(Isometry, "apply_circle", refuse)
    found = [isometry_matching(s, t) for s, t in cases]
    assert [isometry_matching(src, miss) for miss in misses] == [None, None]
    for (s, t), iso in zip(cases, found):
        assert iso is not None
        assert all({iso.apply_boundary(p) for p in a.endpoints} == set(b.endpoints)
                   for a, b in zip(s, t))
    assert isometry_matching(src, hit) == Isometry.translation(1)


def test_matching_builds_one_isometry_per_answer(monkeypatch):
    # candidates are integer tuples: an exact hit builds one Isometry, its
    # answer, whether three rational boundary points frame it or the frame
    # is completed from one or two, and a miss builds none, whether the
    # pair counts answer it or every candidate fails
    import random

    from hyperk import INFINITY, BoundaryPoint, isometry_matching, make_geodesic, make_horocycle
    from hyperk.model import Isometry
    from hyperk.predicates import pair_counts
    from hyperk.verify import rand_curve, rand_isometry

    F = BoundaryPoint.finite
    rng = random.Random(2601)
    hits, count_misses = [], []
    while len(hits) < 40:
        src = list({rand_curve(rng): None for _ in range(rng.randint(3, 6))})
        g = rand_isometry(rng)
        image = [g.apply_curve(c) for c in src]
        hits.append((src, image))
        swapped = image[1:2] + image[:1] + image[2:]
        if all(a.kind is b.kind for a, b in zip(src, swapped)) and (
                pair_counts(src) != pair_counts(swapped)):
            count_misses.append((src, swapped))
    src = [make_horocycle(F(0), 1), make_geodesic(F(1), F(3)), make_geodesic(F(4), F(5))]
    search_misses = [(src, src[:2] + [make_geodesic(F(4), F(6))]),
                     (src, src[:2] + [make_geodesic(F(5), INFINITY)])]
    assert len(count_misses) >= 5
    assert all(pair_counts(s) == pair_counts(t) for s, t in search_misses)
    # one or two distinct boundary points: the frame is completed
    few = [[make_horocycle(INFINITY, 1), make_horocycle(INFINITY, 2)],
           [make_geodesic(F(0), INFINITY), make_horocycle(INFINITY, 1)]]
    for index, src in enumerate(few * 4):
        g = Isometry(2, 1, 1, 3, reversing=index % 2 == 1) if index < 2 else rand_isometry(rng)
        hits.append((src, [g.apply_curve(c) for c in src]))
    built = []
    init, from_coprime = Isometry.__init__, Isometry._from_coprime.__func__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_coprime(cls, *args):
        built.append(args)
        return from_coprime(cls, *args)

    # an Isometry comes from one of its two constructors
    monkeypatch.setattr(Isometry, "__init__", counted)
    monkeypatch.setattr(Isometry, "_from_coprime", classmethod(counted_coprime))
    for s, t in hits:
        del built[:]
        iso = isometry_matching(s, t)
        assert iso is not None and len(built) == 1
    for s, t in count_misses + search_misses:
        del built[:]
        assert isometry_matching(s, t) is None and built == []


def test_configs_op_builds_no_fraction_but_the_answer(monkeypatch):
    # build_graph, automorphisms, a hit and a miss read each curve's
    # integer data: the only Fractions built are the answer's four entries
    import random
    from fractions import Fraction

    from hyperk import INFINITY, automorphisms, build_graph, isometry_matching, make_horocycle
    from hyperk.verify import rand_curve, rand_isometry

    rng = random.Random(2707)
    cases = []
    while len(cases) < 40:
        src = list({rand_curve(rng): None for _ in range(rng.randint(4, 6))})
        g = rand_isometry(rng)
        hit = [g.apply_curve(c) for c in src]
        miss = hit[1:2] + hit[:1] + hit[2:]
        if isometry_matching(src, miss) is None:
            cases.append((src, hit, miss))
    few = [make_horocycle(INFINITY, 1), make_horocycle(INFINITY, 2)]
    g = rand_isometry(rng)
    cases.append((few, [g.apply_curve(c) for c in few], few[::-1]))
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for src, hit, miss in cases:
        del made[:]
        graph = build_graph(src, allow_mixed=True)
        automorphisms(graph)
        assert made == []
        answer = isometry_matching(src, hit)
        assert answer is not None and len(made) == 4
        del made[:]
        assert isometry_matching(src, miss) is None and made == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_uses():
    """(module, attribute) for every name perfbench/*.py imports from hyperk
    (function-local imports too), and every (module, attribute) in the
    tracer's TARGETS, read from the sources without running them."""
    uses = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module == "hyperk" or node.module.startswith("hyperk.")):
                uses.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                uses.update((alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "hyperk")
            elif (isinstance(node, ast.Assign) and path.name == "tracing.py"
                  and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
                uses.update((e.elts[0].value, e.elts[1].value) for e in node.value.elts)
    return uses


def test_is_rational_tells_exact_numbers_from_floats():
    # perfbench/configs.py reads the exactness of realizability radii by it
    from hyperk._rational import Q, is_rational

    assert is_rational(3) and is_rational(Q(1, 3))
    assert not is_rational(0.5) and not is_rational("1/3")


def test_every_name_the_benchmark_uses_resolves():
    uses = _benchmark_uses()
    # workload imports, tracer targets, and the lazy imports in harness and cli runs
    assert {("hyperk.model", "Isometry"), ("hyperk.graphs", "automorphisms"),
            ("hyperk", "_rational"), ("hyperk", "cli")} <= uses
    for module, attr in sorted(uses, key=str):
        mod = importlib.import_module(module)
        if attr is not None and not hasattr(mod, attr):
            importlib.import_module(f"{module}.{attr}")  # a submodule, as in `from hyperk import cli`
    from hyperk import _rational
    from hyperk.model import Isometry

    # the tracer counts calls through _rational.Q, records BACKEND, and
    # wraps Isometry.apply_curve where the class itself defines it
    assert callable(_rational.Q) and isinstance(_rational.BACKEND, str)
    assert callable(Isometry.__dict__["apply_curve"])


def _record_instances():
    """One instance of every record class, with its field names in order,
    and whether instances are hashable."""
    from hyperk import (
        INFINITY, BoundaryPoint, FoliatesComponent, GraphAutomorphism, HorocycleLimit,
        HypercycleOrGeodesicLimit, Isometry, LinkCheckResult, PropertyResult, Q, SvgScene,
        dyadic_family, figure_one_configuration, figure_one_images, four_geodesic_config,
        instance_from_horocycles, intersection_pattern, make_geodesic, make_horocycle,
        pinch_pair, pointwise_image_is_curve, tangency_realizability,
    )

    F = BoundaryPoint.finite
    hs = figure_one_configuration()
    unsat = tangency_realizability(instance_from_horocycles(hs, figure_one_images()))
    sat = tangency_realizability(instance_from_horocycles(hs, [h.center for h in hs]))
    h = make_horocycle(F(0), Q(1, 2))
    return [
        (intersection_pattern(make_geodesic(F(-1), F(1)), make_geodesic(F(0), INFINITY)),
         "interior_count tangent shared_endpoints interior_points equal", True),
        (GraphAutomorphism((1, 0, 2)), "perm", True),
        (LinkCheckResult(False, (F(0), F(1), F(2), INFINITY)), "preserved witness", True),
        (dyadic_family(0, -1, 1), "level n_min n_max horocycles tangency_points", True),
        (FoliatesComponent(), "", True),
        (HorocycleLimit(h), "curve", True),
        (HypercycleOrGeodesicLimit(make_geodesic(F(0), F(1))), "curve", True),
        (four_geodesic_config(F(0), F(1), F(2), INFINITY),
         "x1 x2 y1 y2 g1 g2 h1 h2 properties_verified", True),
        (pointwise_image_is_curve(Isometry(1, 1, 0, 1), h), "is_curve witness", True),
        (instance_from_horocycles(hs, figure_one_images()),
         "centers relabeled_centers required_pattern", False),
        (unsat.cycle[0], "kind i j text", True),
        (sat, "radii exact forced", True),
        (unsat, "message cycle", True),
        (SvgScene(x_min=-1.0).add(h).mark(*dyadic_family(0, -1, 1).tangency_points),
         "x_min x_max height curves points labels pixels_per_unit", False),
        (PropertyResult("order", "a property", False, "why"), "suite name passed detail", False),
        (pinch_pair(make_horocycle(F(0), 1), make_horocycle(F(5), 2))[0], "center size", True),
    ]


@pytest.mark.parametrize("index", range(16))
def test_record_classes_keep_constructor_repr_eq_and_hash(index):
    record, names, hashable = _record_instances()[index]
    cls, names = type(record), names.split()
    values = [getattr(record, name) for name in names]
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__qualname__}({shown})"
    assert cls(*values) == record and cls(**dict(zip(names, values))) == record
    assert record != object() and record.__eq__(object()) is NotImplemented
    if hashable:
        assert hash(record) == hash(tuple(values)) == hash(cls(*values))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    if names:
        with pytest.raises(TypeError):
            cls(*values, None)


def test_record_classes_keep_their_defaults():
    from hyperk import (
        IntersectionPattern, LinkCheckResult, PointwiseImageResult, PropertyResult,
        Satisfiable, SvgScene,
    )

    assert IntersectionPattern(0, False, 0, ()).equal is False
    assert LinkCheckResult(True).witness is None and PointwiseImageResult(True).witness is None
    assert Satisfiable((1,), True).forced == ()
    assert PropertyResult("order", "a property", True).detail == ""
    scene, other = SvgScene(), SvgScene()
    assert (scene.x_min, scene.x_max, scene.height, scene.pixels_per_unit) == (-3.0, 3.0, 3.0, 80.0)
    assert scene.curves == scene.points == scene.labels == []
    assert scene.curves is not other.curves


LINEPROBE = Path(__file__).resolve().parent.parent / "tools" / "lineprobe.py"


def test_line_probe_reports_exactly_the_untaken_branch(tmp_path):
    spec = importlib.util.spec_from_file_location("lineprobe", LINEPROBE)
    lineprobe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lineprobe)
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def branch(flag):\n"
        "    if flag:\n"
        "        return 'taken'\n"
        "    return 'untaken'\n"
    )
    probe = lineprobe.Probe(tmp_path)
    probe.start()
    try:
        namespace = {}
        exec(compile(planted.read_text(), str(planted), "exec"), namespace)
        assert namespace["branch"](True) == "taken"
    finally:
        probe.stop()
    assert probe.unrun(planted) == [(4, "branch")]


def test_cli_fuzz_smoke_run_keeps_the_exit_code_contract(monkeypatch):
    # a fixed-seed run of the contract fuzzer, which runs 12,000 cases
    # outside tier-1, and each breach it reports
    from hyperk import cli
    from test_cli import CLIFUZZ as clifuzz

    assert len(clifuzz.COMMANDS) == 17
    assert clifuzz.fuzz(seed=0, cases=200) == []

    def spin(argv):
        while True:
            pass

    def overflow(argv):
        raise OverflowError("integer division result too large for a float")

    def refuse_with_output(argv):
        print("half an answer")
        return 2

    monkeypatch.setattr(clifuzz, "LIMIT_S", 0.05)
    for main, problem in ((lambda argv: 1, "exit 1: "), (overflow, "escaped OverflowError: "),
                          (refuse_with_output, "exit 2 with stdout 'half an answer\\n'"),
                          (spin, "over 0.05 s")):
        monkeypatch.setattr(cli, "main", main)
        assert clifuzz.run_case(["classify"]).startswith(problem)
