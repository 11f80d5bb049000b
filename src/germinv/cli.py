"""Command line front end: one binary, one subcommand per question.

Reports are JSON by default (keys sorted, formatting fixed, so identical
inputs give bit-identical output) or flat key = value text.  Polynomial
arguments are inline expressions or @file references.  Exit codes: 0 on
success, 2 for input errors, 3 for engine diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .corpus import run_corpus
from .equising import discriminate
from .errors import EngineError, InputError, ParseError
from .families import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    GermFamily,
    family_from_json,
    find_alpha,
    find_transverse_line,
    line_order_profile,
    mu_profile,
    rescaling_family,
)
from .gaussian import GaussianRational
from .milnor import METHOD_FAST, METHOD_ORACLE, METHOD_STANDARD_BASIS, milnor_with_method
from .monodromy import (
    ResolutionData,
    char_poly,
    euler_fiber,
    homogeneous_resolution,
    lefschetz_sequence,
    milnor_from_resolution,
    multiplicity_bound,
    s_sequence,
    zeta,
)
from .poly import Poly, format_poly, parse_poly, parse_scalar, variable_names
from .vectorfields import VectorField, vf_milnor, vf_multiplicity


# -- input helpers -----------------------------------------------------------

def _read_expr(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as handle:
                return handle.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {text[1:]}: {exc}") from exc
    return text


def _parse_vars(raw: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in raw.split(",") if v.strip())
    if not names:
        raise InputError("empty variable list")
    return names


def _infer_vars(texts) -> tuple[str, ...]:
    names = set().union(*map(variable_names, texts))
    if not names:
        raise InputError("no variables found; pass --vars to fix the variable order")
    return tuple(sorted(names))


def _read_polys(args, exprs) -> tuple[list[Poly], tuple[str, ...]]:
    """Read each expression (inline or @file), resolve the names, parse."""
    texts = [_read_expr(e) for e in exprs]
    names = _infer_vars(texts) if args.vars is None else _parse_vars(args.vars)
    return [parse_poly(t, names) for t in texts], names


def _scalar(text: str, offset: int = 0) -> GaussianRational:
    """parse_scalar(text) for text found at offset in an option: a
    ParseError gives its position in the whole option."""
    try:
        return parse_scalar(text)
    except ParseError as exc:
        raise ParseError(exc.message, offset + exc.position) from None


def _integer(text: str, offset: int = 0) -> int:
    """An integer option (or part of one), read by the expression grammar."""
    value = _scalar(text, offset)
    number = value.re
    if value.is_rational and number.denominator == 1:
        return number.numerator
    raise InputError(f"expected an integer, got {text.strip()!r}")


def _parts(raw: str):
    """The comma-separated parts of an option, each with its offset in it."""
    offset = 0
    for part in raw.split(","):
        yield part, offset
        offset += len(part) + 1


def _parse_scalars(raw: str | None) -> tuple[GaussianRational, ...] | None:
    """The scalars of a comma-separated option, or None if it is not given."""
    return None if raw is None else tuple(_scalar(*part) for part in _parts(raw))


def _parse_fermat(raw: str) -> tuple[int, int]:
    fields = {}
    for part, offset in _parts(raw):
        key, eq, value = part.partition("=")
        fields[key.strip()] = value, offset + len(key) + len(eq)
    if raw.count(",") != 1 or set(fields) != {"l", "n"}:
        raise InputError('expected --fermat l=<degree>,n=<variables>')
    return _integer(*fields["l"]), _integer(*fields["n"])


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise InputError(f"cannot read {path}: {exc}") from exc


def _resolution_from_args(args) -> tuple[ResolutionData, int]:
    if args.fermat:
        l, n = _parse_fermat(args.fermat)
        return homogeneous_resolution(l, n), n
    if not args.res:
        raise InputError("pass either --fermat l=..,n=.. or --res FILE with --n")
    if args.n is None:
        raise InputError("--res needs --n (the ambient variable count)")
    return ResolutionData.from_json(_load_json(args.res)), _integer(args.n)


# -- output helpers ----------------------------------------------------------

def _text_render(value, path="") -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            sub = f"{path}.{key}" if path else str(key)
            lines.extend(_text_render(value[key], sub))
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            lines.extend(_text_render(item, f"{path}[{idx}]"))
    else:
        lines.append(f"{path} = {value}")
    return lines


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(_text_render(report)))


def _staircase_strings(staircase, names) -> list[str]:
    monos = sorted(staircase, key=lambda m: (sum(m), m))
    return [format_poly(Poly.monomial(len(names), m), names) for m in monos]


# -- subcommand handlers -----------------------------------------------------

def _cmd_mult(args) -> dict:
    (f,), names = _read_polys(args, [args.expr])
    if not f:
        raise InputError("the zero polynomial has no multiplicity")
    return {
        "command": "mult",
        "degree": f.degree(),
        "initialForm": format_poly(f.initial_form(), names),
        "order": f.order(),
        "poly": format_poly(f, names),
        "vars": list(names),
    }


def _cmd_milnor(args) -> dict:
    (f,), names = _read_polys(args, [args.expr])
    dmax = None if args.dmax is None else _integer(args.dmax)
    result = milnor_with_method(f, args.method, dmax)
    report = {
        "command": "milnor",
        "isolated": result.isolated,
        "method": result.method,
        "mu": result.mu,
        "poly": format_poly(f, names),
        "vars": list(names),
    }
    if result.staircase is not None:
        report["staircase"] = _staircase_strings(result.staircase, names)
    if result.note:
        report["note"] = result.note
    return report


def _cmd_zeta(args) -> dict:
    res, n = _resolution_from_args(args)
    horizon = _integer(args.K) if args.K is not None else 2 * res.max_multiplicity()
    lam = lefschetz_sequence(res, horizon)
    s = s_sequence(res)
    bound = multiplicity_bound(lam)
    return {
        "K": horizon,
        "Lambda": list(lam),
        "Z": str(zeta(s)),
        "command": "zeta",
        "eulerFiber": euler_fiber(res),
        "mu": milnor_from_resolution(res, n),
        "multiplicityBound": {
            "firstNonzero": bound if bound <= horizon else None,
            "lowerBound": bound,
        },
        "n": n,
        "s": {str(i): v for i, v in s.entries},
        "strata": res.to_json(),
    }


def _cmd_charpoly(args) -> dict:
    res, n = _resolution_from_args(args)
    mu = _integer(args.mu) if args.mu is not None else milnor_from_resolution(res, n)
    z = zeta(s_sequence(res))
    delta = char_poly(z, mu, n)
    return {
        "Z": str(z),
        "charpoly": str(delta),
        "coeffs": list(delta.coeffs),
        "command": "charpoly",
        "degree": delta.degree,
        "mu": mu,
        "n": n,
    }


def _cmd_discriminate(args) -> dict:
    (f, g), names = _read_polys(args, [args.first, args.second])
    report = discriminate(f, g).to_json_dict()
    report.update(
        {
            "command": "discriminate",
            "polys": [format_poly(f, names), format_poly(g, names)],
            "vars": list(names),
        }
    )
    return report


def _family_from_args(args) -> tuple[GermFamily, tuple[str, ...]]:
    if args.file is not None:
        return family_from_json(_load_json(args.file))
    (f,), names = _read_polys(args, [args.rescale])
    return rescaling_family(f), names


def _cmd_family(args) -> dict:
    ts = _parse_scalars(args.ts) or DEFAULT_SAMPLES

    if args.find_alpha is not None:
        (target,), names = _read_polys(args, [args.find_alpha])
        alpha = find_alpha(target, ts, _parse_scalars(args.candidates),
                           seed=_integer(args.seed))
        return {
            "alpha": None if alpha is None else str(alpha),
            "command": "family",
            "found": alpha is not None,
            "mode": "find-alpha",
            "target": format_poly(target, names),
            "ts": [str(t) for t in ts],
            "vars": list(names),
        }

    family, names = _family_from_args(args)
    profile = mu_profile(family, ts)
    caveats = ["sampled-parameters-only"]
    if family.nvars == 3:
        caveats.append("ambient-dimension-3-excluded")
    report = {
        "caveats": caveats,
        "command": "family",
        "jump": profile.jump,
        "mode": "mu-profile",
        "muAtZero": profile.mu_at_zero,
        "pieces": [
            {"poly": format_poly(p.poly, names), "tpower": p.tpower}
            for p in family.pieces
        ],
        "profile": [
            {"mu": s.mu, "status": s.status, "t": str(s.t)} for s in profile.samples
        ],
        "ts": [str(t) for t in ts],
        "vars": list(names),
    }

    direction = _parse_scalars(args.line)
    if direction is None and args.find_line:
        forms = []
        seen = set()
        for t in ts:
            germ = family.at(t)
            if not germ:
                raise InputError(f"the family vanishes identically at t = {t}")
            form = germ.initial_form()
            if form not in seen:
                seen.add(form)
                forms.append(form)
        direction = find_transverse_line(forms, trials=_integer(args.trials),
                                         seed=_integer(args.seed))
        if direction is None:
            report["line"] = None
            return report
    if direction is not None:
        line_profile = line_order_profile(family, direction, ts)
        report["line"] = "(" + ", ".join(map(str, direction)) + ")"
        report["lineProfile"] = [
            {"order": order, "t": str(t)} for t, order in line_profile
        ]
    return report


def _cmd_foliation(args) -> dict:
    components, names = _read_polys(args, args.components)
    field = VectorField(tuple(components))
    index = vf_milnor(field)
    return {
        "command": "foliation",
        "components": [format_poly(c, names) for c in field.components],
        "index": index,
        "isolated": index is not None,
        "multiplicity": vf_multiplicity(field),
        "vars": list(names),
    }


def _cmd_corpus(args) -> dict:
    entries = run_corpus()
    return {
        "allAgree": all(e["agreement"] for e in entries),
        "command": "corpus",
        "count": len(entries),
        "entries": entries,
    }


# -- parser wiring -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germinv",
        description="Exact invariants of isolated hypersurface germs.",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="report format (default json, deterministic either way)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_vars(p):
        p.add_argument(
            "--vars",
            help="comma-separated variable names; inferred alphabetically if omitted",
        )

    def add_format(p):
        # Accepted after the subcommand as well; SUPPRESS keeps the
        # subparser from clobbering a value parsed at the top level.
        p.add_argument(
            "--format", choices=("json", "text"), default=argparse.SUPPRESS,
            help="report format (default json)",
        )

    p = sub.add_parser("mult", help="order (= multiplicity) and degree window")
    p.add_argument("expr", help="polynomial expression or @file")
    add_vars(p)
    add_format(p)
    p.set_defaults(handler=_cmd_mult)

    p = sub.add_parser("milnor", help="Milnor number of a germ")
    p.add_argument("expr")
    add_vars(p)
    p.add_argument(
        "--method",
        choices=(METHOD_STANDARD_BASIS, METHOD_ORACLE, METHOD_FAST),
        default=METHOD_STANDARD_BASIS,
    )
    p.add_argument("--dmax", help="truncation horizon for the oracle")
    add_format(p)
    p.set_defaults(handler=_cmd_milnor)

    def add_resolution(p, with_mu=False):
        p.add_argument("--fermat", help="l=<degree>,n=<variables> reference germ")
        p.add_argument("--res", help="JSON file: array of {m, chi} strata")
        p.add_argument("--n", help="ambient variable count for --res")
        if with_mu:
            p.add_argument("--mu", help="override the Milnor number")

    p = sub.add_parser("zeta", help="Lefschetz numbers, s-sequence and zeta factors")
    add_resolution(p)
    p.add_argument("--K", help="horizon for the Lefschetz list")
    add_format(p)
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("charpoly", help="characteristic polynomial of the monodromy")
    add_resolution(p, with_mu=True)
    add_format(p)
    p.set_defaults(handler=_cmd_charpoly)

    p = sub.add_parser("discriminate", help="equisingularity screening for a pair")
    p.add_argument("first")
    p.add_argument("second")
    add_vars(p)
    add_format(p)
    p.set_defaults(handler=_cmd_discriminate)

    p = sub.add_parser("family", help="sampled profiles of a one-parameter family")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rescale", help="germ whose rescaling family to sample")
    group.add_argument("--file", help="JSON family file with pieces and vars")
    group.add_argument(
        "--find-alpha", help="homogeneous target form for the joining search"
    )
    add_vars(p)
    p.add_argument("--ts", help="comma-separated scalars, default 0,1/4,1/2,3/4,1")
    p.add_argument("--line", help="probe direction, comma-separated scalars")
    p.add_argument("--find-line", action="store_true",
                   help="search for a direction transverse to all sampled cones")
    p.add_argument("--trials", default="200")
    p.add_argument("--candidates", help="explicit alpha candidates for --find-alpha")
    p.add_argument("--seed", default=str(DEFAULT_SEED))
    add_format(p)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("foliation", help="multiplicity and index of a vector field")
    p.add_argument("components", nargs="+", help="component polynomials in order")
    add_vars(p)
    add_format(p)
    p.set_defaults(handler=_cmd_foliation)

    p = sub.add_parser("corpus", help="run both engines over the bundled corpus")
    add_format(p)
    p.set_defaults(handler=_cmd_corpus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main() and reused by later calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine diagnostic: {exc}", file=sys.stderr)
        return 3
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
