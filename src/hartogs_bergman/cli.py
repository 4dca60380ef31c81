"""Command-line front end with JSON/CSV reports and reproducible seeds.

Every command emits a deterministic report for a fixed parameter set: JSON
as {"schema_version", "command", "params", "results"}, CSV with a leading
"# schema_version=N" comment line.  Wall time and the package version go
to stderr so the payload stays byte-identical across runs.

Exit codes: 0 success, 1 usage or domain errors, 2 failed verification
checks (residual or tolerance exceeded, or a value that cannot be
certified; no report is written then).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .acceptance import bell_residuals, biholo_residuals, run_all, series_deviations
from .analysis import (
    RAMADANOV_POINTS,
    diagonal_ratio,
    delta_rate,
    lqk_witness,
    ramadanov_table,
    thin_nonvanishing,
    zero_locus_scan,
)
from .domain import (
    DomainError,
    DomainSpec,
    PathKind,
    Point2C,
    boundary_paths,
    sampling_acceptance,
)
from .kernels import THIN_VARIANT_DEFAULT, SingularEvaluation, kernel
from .oracle import NonconvergentTruncation, inner_product_mc, parse_function, reproducing_check
from .polynomials import verify_coefficient_identities
from .transforms import MapKind, ProperMap

SCHEMA_VERSION = 1

# The biholomorphisms; the power map is a branched covering, checked by bell-check.
_MAPS = {kind.value: kind for kind in MapKind if kind is not MapKind.POWER}

_PATHS = {p.value: p for p in PathKind}


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _complex_arg(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}") from None


def _tolerance_arg(text: str) -> float:
    # "not >= 0" also rejects NaN, which would fail every "worst <= tol" check.
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _spec_arg(text: str) -> DomainSpec:
    try:
        return DomainSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cjson(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _point_json(p: Point2C) -> dict:
    return {"z1": _cjson(p.z1), "z2": _cjson(p.z2)}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hartogs-bergman", description=__doc__)
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a kernel at a point pair")
    p.add_argument("--spec", type=_spec_arg, required=True)
    p.add_argument("--z", type=_complex_arg, nargs=2, required=True, metavar="RE,IM")
    p.add_argument("--w", type=_complex_arg, nargs=2, required=True, metavar="RE,IM")
    p.add_argument("--thin-variant", choices=("1-t", "1-s"), default=THIN_VARIANT_DEFAULT)

    p = sub.add_parser("identities", help="exact coefficient-polynomial identities")
    p.add_argument("--kmax", type=int, default=50)

    p = sub.add_parser("series-compare", help="closed form vs orthonormal series")
    p.add_argument("--spec", type=_spec_arg, required=True)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", type=_tolerance_arg, default=1e-6, help="relative deviation bound")
    p.add_argument("--series-tol", type=float, default=1e-10)
    p.add_argument("--max-mod", type=float, default=0.4, help="bound on |s| and |t| of pairs")
    p.add_argument("--thin-variant", choices=("1-t", "1-s"), default=THIN_VARIANT_DEFAULT)

    p = sub.add_parser("bell-check", help="branched-covering transformation residuals")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=_tolerance_arg, default=1e-9)

    p = sub.add_parser("inner-product", help="Monte Carlo inner product of two test functions")
    p.add_argument("--spec", type=_spec_arg, required=True)
    p.add_argument("--f", default="one", help='"one", "z1", "z2", "z2inv" or "z1^a*z2^b"')
    p.add_argument("--g", default="one")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("reproducing", help="Monte Carlo check of the reproducing property")
    p.add_argument("--spec", type=_spec_arg, required=True)
    p.add_argument("--f", default="one", help='"one", "z1", "z2", "z2inv" or "z1^a*z2^b"')
    p.add_argument("--z", type=_complex_arg, nargs=2, default=[complex(0.1), complex(0.5)],
                   metavar="RE,IM")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", type=_tolerance_arg, default=0.02)

    p = sub.add_parser("biholo-check", help="biholomorphic transformation residuals")
    p.add_argument("--map", choices=sorted(_MAPS), required=True)
    p.add_argument("--k", type=int, help="exponent for the iterated shears")
    p.add_argument("--src", type=_spec_arg, help="source domain (default: the map's own)")
    p.add_argument("--dst", type=_spec_arg, help="target domain (default: the map's own)")
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=_tolerance_arg, default=1e-12)
    p.add_argument("--thin-variant", choices=("1-t", "1-s"), default=THIN_VARIANT_DEFAULT)

    p = sub.add_parser("lqk", help="kernel zero witnesses / thin nonvanishing scan")
    p.add_argument("--kmax", type=int, default=50, help="fat witnesses for k = 2..kmax")
    p.add_argument("--thin-k", type=int, help="scan the thin triangle of this exponent instead")
    p.add_argument("--pairs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", type=_tolerance_arg, default=1e-12)

    p = sub.add_parser("zero-scan", help="numerator zero locus over a real-s slice (CSV)")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--s-points", type=int, default=101)
    p.add_argument("--t-abs", type=float, help="additionally scan the circle |t| = T")
    p.add_argument("--t-points", type=int, default=256)
    p.add_argument("--tol", type=_tolerance_arg, default=1e-8)

    p = sub.add_parser("asymptotics", help="diagonal blow-up ratios along a boundary path (CSV)")
    p.add_argument("--spec", type=_spec_arg, required=True)
    p.add_argument("--path", choices=sorted(_PATHS), default="origin")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--compare", choices=("face", "delta"), default="face",
                   help="face: boundary-face comparison quantity; delta: squared distance")
    p.add_argument("--bound", type=_tolerance_arg, default=10.0, help="tail quotient bound")

    p = sub.add_parser("ramadanov", help="kernel convergence table in the exponent (CSV)")
    p.add_argument("--kmax", type=int, default=25)
    p.add_argument("--point", type=_complex_arg, nargs=2, action="append", metavar="RE,IM",
                   help="diagonal evaluation point; repeatable (default: three built-ins)")

    p = sub.add_parser("volume", help="sampler acceptance ratio vs quadrature volume")
    p.add_argument("--spec", type=_spec_arg, required=True)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", type=_tolerance_arg, default=0.01)

    p = sub.add_parser("reproduce", help="run the full acceptance battery")
    p.add_argument("--only", type=int, nargs="*", help="criterion numbers to run")

    return parser


def _params_dict(args: argparse.Namespace) -> dict:
    skip = {"command", "out"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, DomainSpec):
            value = str(value)
        elif isinstance(value, list) and value and isinstance(value[0], complex):
            value = [_cjson(v) for v in value]
        out[key] = value
    return out


def _cmd_eval(args):
    z = Point2C(*args.z)
    w = Point2C(*args.w)
    kv = kernel(args.spec, z, w, thin_variant=args.thin_variant)
    if not np.isfinite(kv.value):  # NaN and infinity have no JSON form
        raise SingularEvaluation(f"kernel value {kv.value} is not finite")
    results = {
        "spec": str(args.spec),
        "z": _point_json(z),
        "w": _point_json(w),
        "value": _cjson(kv.value),
        "numerator": _cjson(kv.numerator),
        "denominator": _cjson(kv.denominator),
        "near_singular": kv.near_singular,
    }
    return results, 0


def _cmd_identities(args):
    report = verify_coefficient_identities(args.kmax)
    results = {
        "k_max": report.k_max,
        "all_pass": report.all_pass,
        "failures": [{"k": c.k, "detail": c.detail} for c in report.failures],
    }
    return results, 0 if report.all_pass else 2


def _cmd_series_compare(args):
    rows = series_deviations(args.spec, args.pairs, args.seed, args.max_mod, args.series_tol,
                             args.thin_variant)
    worst = max([0.0, *(dev for *_, dev in rows)])
    pairs = [
        {"z": _point_json(z), "w": _point_json(w), "closed": _cjson(closed),
         "series": _cjson(series), "rel_dev": dev, "terms": trunc.terms_used}
        for z, w, closed, series, trunc, dev in rows
    ]
    results = {"max_rel_dev": worst, "tol": args.tol, "pairs": pairs}
    return results, 0 if worst <= args.tol else 2


def _cmd_bell_check(args):
    residuals = bell_residuals(args.k, args.pairs, args.seed, args.seed + 1)
    worst = max(residuals)
    results = {"k": args.k, "residuals": residuals, "max_residual": worst, "tol": args.tol}
    return results, 0 if worst <= args.tol else 2


def _cmd_biholo_check(args):
    m = ProperMap(_MAPS[args.map], args.k)
    src = args.src if args.src is not None else m.default_source
    dst = args.dst if args.dst is not None else m.default_target
    residuals = biholo_residuals(m, src, dst, args.pairs, args.seed, args.thin_variant)
    worst = max(residuals)
    results = {
        "map": args.map,
        "src": str(src),
        "dst": str(dst),
        "max_residual": worst,
        "residuals": residuals,
        "tol": args.tol,
    }
    return results, 0 if worst <= args.tol else 2


def _cmd_inner_product(args):
    f, g = parse_function(args.f), parse_function(args.g)
    est = inner_product_mc(args.spec, f, g, args.n, args.seed)
    results = {
        "spec": str(args.spec),
        "f": f.name,
        "g": g.name,
        "value": _cjson(est.value),
        "std_error": est.std_error,
        "n": est.n,
        "seed": est.seed,
    }
    return results, 0


def _cmd_reproducing(args):
    f = parse_function(args.f)
    z = Point2C(*args.z)
    rep = reproducing_check(args.spec, f, z, args.n, args.seed)
    results = {
        "spec": str(args.spec),
        "f": f.name,
        "z": _point_json(z),
        "residual": rep.residual,
        "estimate": _cjson(rep.estimate),
        "expected": _cjson(rep.expected),
        "excluded": rep.excluded,
        "n": rep.n,
        "seed": rep.seed,
        "tol": args.tol,
    }
    return results, 0 if rep.residual <= args.tol else 2


def _cmd_lqk(args):
    if args.thin_k is not None:
        rep = thin_nonvanishing(args.thin_k, args.pairs, args.seed)
        results = {
            "thin_k": rep.k,
            "pairs": rep.n,
            "seed": rep.seed,
            "zero_hits": rep.zero_hits,
            "min_abs_value": rep.min_abs_value,
            "min_abs_numerator": rep.min_abs_numerator,
        }
        return results, 0 if rep.zero_hits == 0 else 2
    if args.kmax < 2:
        raise ValueError(f"--kmax must be >= 2, got {args.kmax}")
    witnesses = [lqk_witness(k) for k in range(2, args.kmax + 1)]
    worst = max(w.numerator_abs for w in witnesses)
    results = {
        "witnesses": [
            {"k": w.k, "z": _point_json(w.z), "w": _point_json(w.w), "numerator_abs": w.numerator_abs}
            for w in witnesses
        ],
        "max_numerator_abs": worst,
        "tol": args.tol,
    }
    return results, 0 if worst <= args.tol else 2


def _cmd_zero_scan(args):
    scan = zero_locus_scan(args.k, args.s_points, args.t_abs, args.t_points, args.tol)
    header = [
        "row_type", "s", "t_re", "t_im", "t_abs", "realizable", "numerator_residual",
    ]
    rows = []
    for rec in scan.rows:
        for root, ok, res in zip(rec.roots, rec.realizable, rec.residuals):
            rows.append(["root", rec.s, root.real, root.imag, abs(root), int(ok), res])
    for cell in scan.cells:
        rows.append(
            ["cell", cell.s, cell.t.real, cell.t.imag, abs(cell.t), int(cell.realizable),
             cell.numerator_abs]
        )
    return (header, rows), 0


def _cmd_asymptotics(args):
    path = boundary_paths(args.spec, _PATHS[args.path], args.steps)
    if args.compare == "delta":
        if path.kind is not PathKind.ORIGIN:
            raise DomainError("--compare delta applies to the origin path only")
        rep = delta_rate(args.spec, path)
        values = rep.values
        quotient = rep.tail_quotient
    else:
        rep = diagonal_ratio(args.spec, path)
        values = rep.ratios
        quotient = rep.tail_quotient(10)
    header = ["step", "eps", "z1_re", "z1_im", "z2_re", "z2_im", "ratio"]
    rows = [
        [i + 1, path.params[i], p.z1.real, p.z1.imag, p.z2.real, p.z2.imag, values[i]]
        for i, p in enumerate(path.samples)
    ]
    print(f"tail_quotient={quotient:.6g} bound={args.bound:g}", file=sys.stderr)
    return (header, rows), 0 if quotient <= args.bound else 2


def _cmd_ramadanov(args):
    if args.point:
        points = [Point2C(p[0], p[1]) for p in args.point]
    else:
        points = RAMADANOV_POINTS
    table = ramadanov_table(points, args.kmax)
    header = ["k"] + [f"e_p{j}" for j in range(len(points))] + ["e_max"]
    rows = [
        [k, *row, mx]
        for k, row, mx in zip(table.ks, table.errors, table.max_errors)
    ]
    return (header, rows), 0


def _cmd_volume(args):
    acc = sampling_acceptance(args.spec, args.n, args.seed)
    mc_volume = acc * math.pi**2
    if args.spec.is_triangle:
        # Composite Simpson quadrature of the modulus-region integral
        # vol = 2 pi^2 int_0^1 r2^(1 + 2/gamma) dr2.
        g = float(args.spec.gamma)
        r = np.linspace(0.0, 1.0, 4097)
        f = r ** (1.0 + 2.0 / g)
        h = r[1] - r[0]
        simpson = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
        quad_volume = 2.0 * math.pi**2 * float(simpson)
    else:
        quad_volume = math.pi**2
    rel_dev = abs(mc_volume - quad_volume) / quad_volume
    results = {
        "spec": str(args.spec),
        "acceptance_ratio": acc,
        "mc_volume": mc_volume,
        "quadrature_volume": quad_volume,
        "rel_dev": rel_dev,
        "tol": args.tol,
    }
    return results, 0 if rel_dev <= args.tol else 2


def _cmd_reproduce(args):
    results = run_all(args.only, log=sys.stderr)
    payload = [
        {"number": r.number, "name": r.name, "passed": r.passed, "details": r.details}
        for r in results
    ]
    ok = all(r.passed for r in results)
    return {"criteria": payload, "all_passed": ok}, 0 if ok else 2


_encode_str = json.encoder.encode_basestring_ascii


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar_json(o) -> str | None:
    """json's text for a non-container value, in json's order of tests; None otherwise."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_json(o)
    return None


def _key_json(key) -> str:
    """json's quoted text for a dict key: a str, int, float, bool or None."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + _scalar_json(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(o, out: list, indent: str) -> None:
    """Append the text of json.dumps(o, sort_keys=True, indent=2) to out, in one pass.

    ``indent`` is the newline and indentation of o's items.  The pure-Python
    encoder that ``indent`` selects in json formats one value per generator
    step; this writer dispatches on exact types first, and joins a list of
    finite floats in one call.
    """
    kind = type(o)
    if kind is float:
        out.append(_float_json(o))
    elif kind is str:
        out.append(_encode_str(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        close = indent[:-2] + "]"
        if all(type(x) is float for x in o):
            text = ("," + indent).join(map(float.__repr__, o))
            if "n" not in text:  # no "nan" or "inf": every float is finite
                out.append("[" + indent + text + close)
                return
        sep, deeper = "[" + indent, indent + "  "
        for x in o:
            out.append(sep)
            _write_json(x, out, deeper)
            sep = "," + indent
        out.append(close)
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        sep, deeper = "{" + indent, indent + "  "
        for key, value in sorted(o.items()):
            head = sep + (_encode_str(key) if type(key) is str else _key_json(key)) + ": "
            if type(value) is float:
                out.append(head + _float_json(value))
            else:
                out.append(head)
                _write_json(value, out, deeper)
            sep = "," + indent
        out.append(indent[:-2] + "}")
    else:
        text = _scalar_json(o)
        if text is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        out.append(text)


_COMMANDS = {
    "eval": _cmd_eval,
    "identities": _cmd_identities,
    "series-compare": _cmd_series_compare,
    "bell-check": _cmd_bell_check,
    "biholo-check": _cmd_biholo_check,
    "inner-product": _cmd_inner_product,
    "reproducing": _cmd_reproducing,
    "lqk": _cmd_lqk,
    "zero-scan": _cmd_zero_scan,
    "asymptotics": _cmd_asymptotics,
    "ramadanov": _cmd_ramadanov,
    "volume": _cmd_volume,
    "reproduce": _cmd_reproduce,
}


def _emit(payload, args: argparse.Namespace) -> None:
    if isinstance(payload, tuple):  # CSV: (header, rows)
        header, rows = payload
        buf = io.StringIO()
        buf.write(f"# schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "params": _params_dict(args),
            "results": payload,
        }
        out = []
        _write_json(envelope, out, "\n  ")
        text = "".join(out) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# One parser per process, built on the first main call; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        payload, code = _COMMANDS[args.command](args)
    except (DomainError, ValueError, OverflowError) as exc:
        print(f"hartogs-bergman {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (NonconvergentTruncation, SingularEvaluation) as exc:
        # A series tail or a kernel value that cannot be certified is a failed check.
        print(f"hartogs-bergman {args.command}: error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(payload, args)
    except OSError as exc:
        print(f"hartogs-bergman {args.command}: error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    print(f"wall_time_s={elapsed:.3f} version={__version__}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
