"""Command-line front end.

Subcommands: classify, construct, intersect, graph, earthquake, family,
verify, render.  Exit codes: 0 success, 2 parse/usage error, 3 degenerate
geometry, 4 unwritable output path, which a closed stdout also gives.

One grammar reads every flag value.  A value is a comma-separated list of
fields (`_fields`), and `_checked` reads each field by its kind: a number is
`p`, `p/q` or a decimal literal, always read at its exact value
(`_parse_number`); a boundary point is `oo` or a number.  `_curve` builds
every curve flag from its row of `_CURVES`.  A value that does not parse
fails with its flag and form ("--geodesic p,q expected, got 'a'"), and one
that parses but is refused keeps the reason after them ("--horocycle
center,size: '1e400' is not a finite number").

Every answer is exact: a pinching horocycle of irrational centre prints
its centre and size in Q(sqrt D) (`constructions.PinchWitness.to_text`).

This module imports `model`, which reads every flag value into numbers,
points and curves, so every call loads `model` and `_rational`.  Each
command imports the other layers it runs inside its function, after it has
read its flags and files, so a call starts only the modules it needs:
`classify` loads no predicates, `verify order` only the predicates its
suite checks, and a usage error or an unreadable curve file no layer past
`model`.  Only --format records loads json.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import List, Optional

from ._rational import Q, q_from_str, q_str
from .errors import DegenerateResultError, HyperkError, InvalidInputError
from .model import (
    INFINITY,
    BoundaryPoint,
    Curve,
    CurveKind,
    UHPPoint,
    curve_from_coeffs,
    equidistant_pair,
    make_geodesic,
    make_horocycle,
    make_hypercycle,
    parse_curve_text,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_UNWRITABLE = 4


class _Output:
    """A command's output, held until the command returns: `flush` prints
    it, and a command that raises prints nothing on stdout."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.records: List[dict] = []
        self.lines: List[str] = []

    def emit(self, text: str, record: Optional[dict] = None):
        if self.fmt == "records":
            self.records.append(record if record is not None else {"text": text})
        else:
            self.lines.append(text)

    def flush(self):
        lines = self.lines
        if self.fmt == "records":
            import json

            lines = [json.dumps(rec, sort_keys=True) for rec in self.records]
        for line in lines:
            print(line)


_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")
_INFINITIES = ("oo", "inf", "Inf", "infty", "Infinity", "infinity")


def _float(text: str) -> float:
    """The float of a decimal literal, refused when it underflows to 0 from
    nonzero digits."""
    value = float(text)  # a ValueError: no number at all
    if value == 0 and any(ch in "123456789" for ch in text.lower().partition("e")[0]):
        raise InvalidInputError(f"{text.strip()!r} is nonzero but below the float range")
    return value


def _parse_number(text: str):
    """`p`, `p/q` or a decimal literal, read at its exact value.  A decimal
    must lie in the float range: one whose float is infinite or nan, or
    underflows to 0 from nonzero digits (`_float`), is refused, which also
    bounds the size of its exact value."""
    text = text.strip()
    if _RATIONAL_RE.match(text):
        return q_from_str(text)
    value = _float(text)
    if not math.isfinite(value):
        raise InvalidInputError(f"{text!r} is not a finite number")
    return q_from_str(text) if value else Q(0)


def _fields(text: Optional[str], count: int, usage: str) -> List[str]:
    """Split a comma-separated flag value into exactly `count` fields."""
    parts = (text or "").split(",")
    if len(parts) != count:
        raise InvalidInputError(f"{usage} expected, got {text!r}")
    return parts


def _checked(code: str, text: str, usage: str):
    """One field of a flag value, read as its code says: `n` a number, `b`
    a boundary point (`oo` or a number), `i` an int, `f` a float
    (`_float`), `t` a curve text line.  A failure names the value's flag
    and form `usage`: in place of a bare ValueError, and before the reason
    of an InvalidInputError."""
    try:
        if code == "b" and text.strip() in _INFINITIES:
            return INFINITY
        if code in "nb":
            value = _parse_number(text)
            return BoundaryPoint(value) if code == "b" else value
        return {"i": int, "f": _float, "t": parse_curve_text}[code](text)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{usage}: {exc}") from None
    except ValueError:
        raise InvalidInputError(f"{usage} expected, got {text!r}") from None


def _parsed(text: Optional[str], codes: str, usage: str) -> list:
    """The fields of a flag value, one per code, each read by `_checked`."""
    fields = _fields(text, len(codes), usage)
    return [_checked(code, f, usage) for code, f in zip(codes, fields)]


#: each curve flag: its form, the code of each field, and the curve of the values
_CURVES = {
    "coeffs": ("a,b,c,d", "nnnn", curve_from_coeffs),
    "geodesic": ("p,q", "bb", make_geodesic),
    "horocycle": ("center,size", "bn", make_horocycle),
    "hypercycle": ("p,q,x,y", "bbnn", lambda p, q, x, y: make_hypercycle(p, q, UHPPoint(x, y))),
    "curve": ("kind a=A b=B c=C d=D", "t", lambda c: c),
}


def _curve(kind: str, text: Optional[str], flag: str) -> Curve:
    """The curve that the value `text` of the flag `flag` gives as a `kind`."""
    form, codes, build = _CURVES[kind]
    return build(*_parsed(text, codes, f"{flag} {form}"))


def _curve_from_args(args, prefix: str = "") -> Curve:
    """The curve given by exactly one of the flags --`prefix`<kind>."""
    given = [
        (kind, text) for kind in _CURVES
        if (text := getattr(args, (prefix + kind).replace("-", "_")))
    ]
    if len(given) != 1:
        raise InvalidInputError(
            "specify exactly one of " + "/".join(f"--{prefix}{kind}" for kind in _CURVES)
        )
    kind, text = given[0]
    return _curve(kind, text, f"--{prefix}{kind}")


def _describe_curve(c: Curve) -> str:
    if c.kind is CurveKind.HOROCYCLE:
        if c.center.is_infinity:
            return f"Horocycle center oo height {q_str(c.size)}"
        return f"Horocycle center {c.center!r} radius {q_str(c.size)}"
    name = c.kind.value.capitalize()
    if c.has_exact_endpoints:
        eps = ", ".join(repr(p) for p in c.endpoints)
        return f"{name} endpoints {eps}"
    return f"{name} endpoints ~{c.endpoint_floats()}"


def _add_curve_flags(p: argparse.ArgumentParser, prefix: str = ""):
    for kind in _CURVES:
        p.add_argument(f"--{prefix}{kind}")


def cmd_classify(args, out: _Output) -> int:
    c = _curve_from_args(args)
    out.emit(
        f"{_describe_curve(c)}\ncanonical {c.to_text()}",
        {"describe": _describe_curve(c), **c.to_record()},
    )
    return EXIT_OK


def cmd_construct(args, out: _Output) -> int:
    what = args.what
    if what == "dyadic":
        from .constructions import dyadic_family

        fam = dyadic_family(args.level, args.n_min, args.n_max)
        for h in fam.horocycles:
            out.emit(h.to_text(), h.to_record())
        for pt in fam.tangency_points:
            out.emit(
                f"tangency {q_str(pt.x)} + i*{q_str(pt.y)}",
                {"tangency": [q_str(pt.x), q_str(pt.y)]},
            )
        return EXIT_OK
    if what == "pinch":
        from .constructions import pinch_pair

        h0 = _curve("horocycle", args.first, "--first")
        h1 = _curve("horocycle", args.second, "--second")
        for w in pinch_pair(h0, h1):
            out.emit(w.to_text(), w.to_record())
        return EXIT_OK
    if what == "equidistant":
        g = _curve("geodesic", args.first, "--first")
        (distance,) = _parsed(args.distance, "f", "--distance d")
        for w in equidistant_pair(g, distance):
            out.emit(w.to_text(), w.to_record())
        return EXIT_OK
    raise InvalidInputError(f"unknown construction {what!r}")


def cmd_intersect(args, out: _Output) -> int:
    from .predicates import intersection_pattern, pair_type_from_pattern

    c1 = _curve_from_args(args, "first-")
    c2 = _curve_from_args(args, "second-")
    pat = intersection_pattern(c1, c2)
    ptype = pair_type_from_pattern(c1, c2)
    out.emit(
        f"{pat.describe()}\npair type {ptype.name}",
        {"pattern": pat.to_record(), "pair_type": ptype.name},
    )
    return EXIT_OK


def _read_curves(path: str) -> List[Curve]:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]
    return [parse_curve_text(ln) for ln in lines]


def _read_some_curves(path: str) -> List[Curve]:
    """The curves of a file that must hold at least one."""
    curves = _read_curves(path)
    if not curves:
        raise InvalidInputError(f"{path}: the file has no curves")
    return curves


def cmd_graph(args, out: _Output) -> int:
    curves = _read_some_curves(args.curves)
    from .graphs import GraphAutomorphism, automorphisms, build_graph, isometry_realizing

    try:
        g = build_graph(curves, allow_mixed=args.mixed)
    except InvalidInputError as exc:  # the flag, not the keyword, in the advice
        raise InvalidInputError(str(exc).replace("allow_mixed=True", "--mixed")) from None
    out.emit(g.to_text(), g.to_record())
    if args.autos:
        autos = automorphisms(g, cap=args.cap)
        for a in autos:
            out.emit(f"automorphism {list(a.perm)}", a.to_record())
        out.emit(f"{len(autos)} automorphisms", {"automorphism_count": len(autos)})
    if args.realize:
        ints = "i" * len(args.realize.split(","))
        perm = GraphAutomorphism(tuple(_parsed(args.realize, ints, "--realize i,j,...")))
        iso = isometry_realizing(g, perm)
        if iso is None:
            out.emit("no realizing isometry", {"realizing": None})
        else:
            out.emit(f"realizing isometry {iso!r}", {"realizing": iso.to_record()})
    return EXIT_OK


def cmd_earthquake(args, out: _Output) -> int:
    from .earthquake import EarthquakeMap, eq_apply, eq_geodesic_image

    fault = _curve("geodesic", args.fault, "--fault")
    (shear,) = _parsed(args.shear, "n", "--shear p/q")
    e = EarthquakeMap(fault, shear, args.side)
    action = args.action
    if action == "apply":
        for token in args.values:
            if "," in token:
                z = UHPPoint(*_parsed(token, "nn", "apply x,y"))
                w = eq_apply(e, z)
                out.emit(
                    f"{token} -> {w.x},{w.y}",
                    {"input": token, "image": [str(w.x), str(w.y)]},
                )
            else:
                (b,) = _parsed(token, "b", "apply x,y or p/q or oo")
                w = eq_apply(e, b)
                out.emit(f"{token} -> {w!r}", {"input": token, "image": repr(w)})
        return EXIT_OK
    if action == "image":
        for token in args.values:
            g = _curve("geodesic", token, "image")
            img = eq_geodesic_image(e, g)
            out.emit(f"{g.to_text()} -> {img.to_text()}", img.to_record())
        return EXIT_OK
    if action == "certify":
        from .earthquake import (
            Satisfiable,
            figure_one_configuration,
            instance_from_horocycles,
            tangency_realizability,
        )

        hs = _read_some_curves(args.curves) if args.curves else figure_one_configuration()
        images = [eq_apply(e, h.center) for h in hs]
        inst = instance_from_horocycles(hs, images)
        res = tangency_realizability(inst)
        if isinstance(res, Satisfiable):
            radii = ", ".join(str(r) for r in res.radii)
            out.emit(f"satisfiable: radii {radii}", res.to_record())
        else:
            out.emit(f"unsatisfiable: {res.message}", res.to_record())
            for con in res.cycle:
                out.emit(f"  constraint: {con.text}", con.to_record())
        return EXIT_OK
    raise InvalidInputError(f"unknown earthquake action {action!r}")


def cmd_family(args, out: _Output) -> int:
    from .constructions import (
        FoliatesComponent,
        HorocycleLimit,
        classify_family_limit,
        disj_family,
        fixed_endpoint_family,
        ray_family,
    )

    if args.preset == "ray":
        fam = ray_family()
    elif args.preset == "fixed-endpoint":
        fam = fixed_endpoint_family(3, Q(3, 2))
    else:
        h = _curve("horocycle", args.horocycle, "--horocycle")
        hp = _curve("hypercycle", args.hypercycle, "--hypercycle")
        fam = disj_family(h, hp)
    res = classify_family_limit(fam)
    if isinstance(res, FoliatesComponent):
        out.emit("limit: foliates its component", {"limit": "foliates"})
        return EXIT_OK
    label = "horocycle" if isinstance(res, HorocycleLimit) else "hypercycle-or-geodesic"
    out.emit(
        f"limit: {label} {res.curve.to_text()}",
        {"limit": label, **res.curve.to_record()},
    )
    return EXIT_OK


def cmd_verify(args, out: _Output) -> int:
    from .verify import run_suite

    env_seed = os.environ.get("HYPERK_SEED")
    seed = args.seed if env_seed is None else _parsed(env_seed, "i", "HYPERK_SEED integer")[0]
    results = run_suite(args.suite, seed=seed, scale=args.scale, depth=args.depth)
    for r in results:
        out.emit(
            r.line(),
            {"suite": r.suite, "property": r.name, "passed": r.passed, "detail": r.detail},
        )
    failed = sum(not r.passed for r in results)
    out.emit(
        f"{len(results) - failed}/{len(results)} properties passed",
        {"passed": len(results) - failed, "total": len(results)},
    )
    return EXIT_OK if failed == 0 else 1


def _scene_from_preset(name: str):
    from .render import SvgScene

    if name == "dyadic":
        from .constructions import dyadic_family

        fam = dyadic_family(0, -2, 2)
        scene = SvgScene(x_min=-2.5, x_max=2.5, height=2.0)
        scene.add(make_horocycle(INFINITY, 1))
        scene.add(*fam.horocycles)
        scene.mark(*fam.tangency_points)
        return [scene]
    if name == "figure-one":
        from .earthquake import EarthquakeMap, eq_apply, figure_one_configuration

        hs = figure_one_configuration()
        before = SvgScene(x_min=-3.0, x_max=3.0, height=2.5)
        before.add(*hs)
        fault = make_geodesic(BoundaryPoint.finite(0), INFINITY)
        e = EarthquakeMap(fault, 2, "left")
        after = SvgScene(x_min=-3.0, x_max=3.0, height=2.5)
        for h in hs:
            after.add(make_horocycle(eq_apply(e, h.center), h.size))
        after.add(fault)
        return [before, after]
    if name == "empty":
        return [SvgScene()]
    raise InvalidInputError(f"unknown preset {name!r}")


def cmd_render(args, out: _Output) -> int:
    from .render import SvgScene, render_panels, render_scene, write_svg

    window = {k: v for k in ("x_min", "x_max", "height") if (v := getattr(args, k)) is not None}
    if args.preset:
        if window:
            flag = "--" + next(iter(window)).replace("_", "-")
            raise InvalidInputError(f"{flag} does not apply to --preset {args.preset}")
        scenes = _scene_from_preset(args.preset)
    else:
        scenes = [SvgScene(**window)]
        if args.curves:
            scenes[0].add(*_read_curves(args.curves))
    svg = render_scene(scenes[0]) if len(scenes) == 1 else render_panels(scenes)
    try:
        write_svg(svg, args.output)
    except OSError as exc:
        print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    out.emit(f"wrote {args.output}", {"output": args.output})
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


#: the `verify` choices: the names of `verify.SUITES`, kept here so that
#: parsing a command imports no suite
VERIFY_SUITES = (
    "order", "boundary-extension", "dyadic", "pinch", "types", "betweenness", "crescent",
    "four-geodesics", "links", "families", "earthquake", "graphs", "all",
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperk",
        description="Exact geodesic/horocycle/hypercycle kernel for the "
        "upper half-plane",
    )
    ap.add_argument("--format", choices=("text", "records"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a curve and print its canonical form")
    _add_curve_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("construct", help="build named constructions")
    p.add_argument("what", choices=("dyadic", "pinch", "equidistant"))
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--n-min", type=int, default=-2)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--first", help="horocycle center,size or geodesic p,q")
    p.add_argument("--second", help="horocycle center,size")
    p.add_argument("--distance", default="1.0")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("intersect", help="intersection pattern of two curves")
    _add_curve_flags(p, "first-")
    _add_curve_flags(p, "second-")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("graph", help="disjointness graph of a curve file")
    p.add_argument("--curves", required=True, help="file of curve text lines")
    p.add_argument("--mixed", action="store_true")
    p.add_argument("--autos", action="store_true", help="list automorphisms")
    p.add_argument("--cap", type=int, default=10000)
    p.add_argument("--realize", help="comma permutation to realize by an isometry")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("earthquake", help="apply/certify a simple earthquake")
    p.add_argument("--fault", required=True, help="p,q boundary endpoints")
    p.add_argument("--shear", required=True, help="rational shear != 1")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("action", choices=("apply", "image", "certify"))
    p.add_argument("values", nargs="*", help="points x,y / boundary values / endpoint pairs")
    p.add_argument("--curves", help="horocycle file for certify")
    p.set_defaults(func=cmd_earthquake)

    p = sub.add_parser("family", help="classify a continuous family's limit")
    p.add_argument("--preset", choices=("ray", "fixed-endpoint"))
    p.add_argument("--horocycle", help="center,size")
    p.add_argument("--hypercycle", help="p,q,x,y")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.add_argument("--depth", type=_nonnegative_int, default=6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="emit a deterministic SVG scene")
    scene = p.add_mutually_exclusive_group()
    scene.add_argument("--preset", choices=("dyadic", "figure-one", "empty"))
    scene.add_argument("--curves", help="file of curve text lines")
    # the window defaults are SvgScene's; a preset has its own window
    p.add_argument("--x-min", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--height", type=float)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_render)

    # let a value that starts with a signed number `_parse_number` reads
    # ("-1,1", "-3/2", "-.5,1", "-inf,1", "-1e-3") pass as an option argument
    neg = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
    ap._negative_number_matcher = neg
    for action in sub.choices.values():
        action._negative_number_matcher = neg

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    out = _Output(args.format)
    try:
        code = args.func(args, out)
    except DegenerateResultError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (HyperkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        out.flush()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at interpreter exit writes what is left nowhere instead of failing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_UNWRITABLE
    return code


if __name__ == "__main__":
    sys.exit(main())
