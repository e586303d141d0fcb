"""Checks on the package as a whole: what importing it loads, and what its
modules import."""

import ast
import importlib
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


def _modules_loaded_by(code):
    """The hyperk modules a fresh interpreter holds after running `code`."""
    return set(ast.literal_eval(_fresh(
        code + "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m == 'hyperk' or m.startswith('hyperk.')))\n"
    )))


def test_import_does_not_load_scipy():
    # the realizability solver imports linprog only when it needs it
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


def test_import_loads_no_layer_module():
    assert _modules_loaded_by("import hyperk") == {"hyperk"}


CLI_BASE = {"hyperk", "hyperk.cli", "hyperk._rational", "hyperk.errors", "hyperk.model"}


@pytest.mark.parametrize("argv, layers", [
    (["classify", "--horocycle", "oo,2"], set()),
    (["construct", "equidistant", "--first", "0,oo"], set()),
    (["intersect", "--first-geodesic", "-1,1", "--second-geodesic", "0,oo"],
     {"predicates"}),
    (["earthquake", "--fault", "0,oo", "--shear", "2", "apply", "1", "1,1"],
     {"predicates", "earthquake"}),
    (["earthquake", "--fault", "0,oo", "--shear", "2", "certify"],
     {"predicates", "earthquake"}),
    (["render", "--preset", "figure-one", "-o", "FILE"],
     {"predicates", "earthquake", "render"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_command_loads_only_its_layers(tmp_path, argv, layers):
    # cli.main in a fresh interpreter loads what `python -m hyperk.cli` does
    argv = [str(tmp_path / "out.svg") if a == "FILE" else a for a in argv]
    loaded = _modules_loaded_by(
        "import contextlib, io\nfrom hyperk import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0"
    )
    assert loaded == CLI_BASE | {f"hyperk.{m}" for m in layers}


#: every name the package exported when it imported all its modules, by the
#: module that defines it
EXPORTED = {
    "_rational": "Q q_from_str q_str",
    "errors": "DegenerateResultError HyperkError IndeterminateLimitError "
              "InvalidInputError NoSolutionError",
    "model": "EPS INFINITY BoundaryPoint Curve CurveKind GeneralizedCircle Isometry "
             "UHPPoint curve_from_circle curve_from_coeffs distance_to_geodesic "
             "equidistant_pair make_geodesic make_horocycle make_hypercycle "
             "parse_curve_text rational_points triple_normalizer two_point_normalizer",
    "predicates": "HorocycleOrder HypercyclePairType IntersectionPattern between_tangent "
                  "geodesics_linked horocycle_leq hypercycle_pair_type intersection_pattern "
                  "linked pair_type_from_pattern same_endpoints",
    "constructions": "CenterSwap ContinuousFamily DyadicFamily FoliatesComponent "
                     "FourGeodesicConfig HorocycleLimit HypercycleOrGeodesicLimit "
                     "chebyshev_grid classify_family_limit disj_family dyadic_family "
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
    assert len(homes) == 88
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
