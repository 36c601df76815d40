"""Command-line front end; all results print as exact fractions.

Exit codes: 0 success, 1 domain/validation error, 2 parse error.
"""

import argparse
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .cocycle import tau_sp
from .errors import ParseError
from .fibered import (
    closed_total,
    euler_contribution,
    geography_convert,
    geography_invert,
    hyperelliptic_twist_value,
    load_fibration,
    local_signatures,
    total_euler,
)
from .genus1 import phi1, dedekind_sum, rademacher
from .matrix import parse_int, parse_matrix
from .presentations import (
    Unbounded,
    class_order,
    load_presentation,
    synthesize_meyer,
)
from .symplectic import SymplecticMatrix

def _fmt(value) -> str:
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # more digits than str() converts
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"the result has more than {limit} digits, the most meyersig prints"
        ) from None


def _symplectic_arg(text: str, g: int | None = None) -> SymplecticMatrix:
    m = SymplecticMatrix(parse_matrix(text))
    if g is not None and m.g != g:
        raise ValueError(f"matrix has genus {m.g}, but -g {g} was given")
    return m


def _parse_fraction(text: str) -> Fraction:
    """A rational number spelled as an integer p or as p/q with q > 0,
    each part an integer token for :func:`parse_int`."""
    num, slash, den = text.partition("/")
    try:
        p, q = parse_int(num), parse_int(den) if slash else 1
        if q > 0:
            return Fraction(p, q)
    except ParseError:
        pass
    raise ParseError(f"bad rational number {text!r}")


def _optional_int(text: str | None) -> int | None:
    return None if text is None else parse_int(text)


def _optional_fraction(text: str | None) -> Fraction | None:
    return None if text is None else _parse_fraction(text)


def _cmd_tau(args) -> int:
    genus = _optional_int(args.genus)
    a = _symplectic_arg(args.a, genus)
    b = _symplectic_arg(args.b, genus)
    print(_fmt(tau_sp(a, b)))
    return 0


def _cmd_phi1(args) -> int:
    print(_fmt(phi1(_symplectic_arg(args.matrix))))
    return 0


def _cmd_dedekind(args) -> int:
    print(_fmt(dedekind_sum(parse_int(args.a), parse_int(args.c))))
    return 0


def _cmd_rademacher(args) -> int:
    print(_fmt(rademacher(_symplectic_arg(args.matrix))))
    return 0


def _cmd_order(args) -> int:
    p = load_presentation(args.presentation)
    order = class_order(p)
    print("infinite" if isinstance(order, Unbounded) else str(order.n))
    return 0


def _cmd_phi(args) -> int:
    p = load_presentation(args.presentation)
    word = p.word(args.word)  # a bad or over-long word fails before synthesis
    print(_fmt(synthesize_meyer(p)(word)))
    return 0


def _cmd_local_sig(args) -> int:
    fd = load_fibration(args.fibration, args.data)
    values = local_signatures(fd)
    total = closed_total(fd, values)  # before any output, so a failed check prints nothing
    for k, (germ, value) in enumerate(zip(fd.germs, values)):
        label = germ.label or f"germ {k}"
        print(f"{label}: {_fmt(value)}")
    print(f"total: {_fmt(total)}")
    return 0


def _cmd_euler(args) -> int:
    if args.eps is not None and args.chi is not None:
        raise ValueError("give either --eps or --chi, not both")
    genus, base = parse_int(args.genus), parse_int(args.base)
    if args.eps is not None:
        contributions = [parse_int(eps) for eps in args.eps]
    elif args.chi is not None:
        contributions = [euler_contribution(parse_int(chi), genus) for chi in args.chi]
    else:
        contributions = []
    print(_fmt(total_euler(genus, base, contributions)))
    return 0


def _cmd_geo(args) -> int:
    ksq, chi_struct = _optional_fraction(args.ksq), _optional_fraction(args.chi_struct)
    sign, chi_top = _optional_fraction(args.sign), _optional_fraction(args.chi_top)
    forward = ksq is not None or chi_struct is not None
    backward = sign is not None or chi_top is not None
    if forward == backward:
        raise ValueError("give exactly one of (--ksq, --chi-struct) or (--sign, --chi-top)")
    if forward:
        if ksq is None or chi_struct is None:
            raise ValueError("--ksq and --chi-struct go together")
        sign, chi_top = geography_convert(ksq, chi_struct)
        print(f"sign={_fmt(sign)} chi_top={_fmt(chi_top)}")
    else:
        if sign is None or chi_top is None:
            raise ValueError("--sign and --chi-top go together")
        k_sq, chi_struct = geography_invert(sign, chi_top)
        print(f"ksq={_fmt(k_sq)} chi_struct={_fmt(chi_struct)}")
    return 0


def _cmd_twist_value(args) -> int:
    if args.nonsep and args.sep is not None:
        raise ValueError("give either --nonsep or --sep h, not both")
    print(_fmt(hyperelliptic_twist_value(parse_int(args.genus), _optional_int(args.sep))))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``meyersig`` argument parser, built once per process.

    Each ``parse_args`` call fills a fresh namespace, so no option value
    carries over from one :func:`main` call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="meyersig",
        description="Exact signature cocycle, Meyer function, and local-signature computations.",
    )
    parser.add_argument("--data", metavar="DIR", help="override the embedded data files")
    parser.add_argument("--seed", default="0", help="seed for randomized subcommands")
    parser.add_argument(
        "--selftest", action="store_true", help="run the invariant suites and exit"
    )
    sub = parser.add_subparsers(dest="command")

    s = sub.add_parser("tau", help="signature cocycle tau(A, B)")
    s.add_argument("-g", dest="genus", default=None)
    s.add_argument("a", help="matrix, e.g. \"1,1;0,1\" or JSON [[1,1],[0,1]]")
    s.add_argument("b")
    s.set_defaults(func=_cmd_tau)

    s = sub.add_parser("phi1", help="genus-1 Meyer function of a matrix")
    s.add_argument("matrix")
    s.set_defaults(func=_cmd_phi1)

    s = sub.add_parser("dedekind", help="Dedekind sum s(a, c)")
    s.add_argument("a")
    s.add_argument("c")
    s.set_defaults(func=_cmd_dedekind)

    s = sub.add_parser("rademacher", help="Rademacher function of a matrix")
    s.add_argument("matrix")
    s.set_defaults(func=_cmd_rademacher)

    s = sub.add_parser("order", help="order of the signature class of a presentation")
    s.add_argument("-p", dest="presentation", required=True, metavar="FILE", type=Path)
    s.set_defaults(func=_cmd_order)

    s = sub.add_parser("phi", help="synthesized Meyer function on a word")
    s.add_argument("-p", dest="presentation", required=True, metavar="FILE", type=Path)
    s.add_argument("word")
    s.set_defaults(func=_cmd_phi)

    s = sub.add_parser("local-sig", help="local signatures and total of a fibration file")
    s.add_argument("-f", dest="fibration", required=True, metavar="FILE", type=Path)
    s.set_defaults(func=_cmd_local_sig)

    s = sub.add_parser("euler", help="Euler number of a fibered 4-manifold")
    s.add_argument("-g", dest="genus", required=True)
    s.add_argument("-b", dest="base", required=True)
    s.add_argument("--eps", nargs="*", default=None, help="Euler contributions")
    s.add_argument("--chi", nargs="*", default=None, help="singular-fiber Euler numbers")
    s.set_defaults(func=_cmd_euler)

    s = sub.add_parser("geo", help="convert between (K^2, chi_O) and (Sign, chi_top)")
    s.add_argument("--ksq", default=None)
    s.add_argument("--chi-struct", dest="chi_struct", default=None)
    s.add_argument("--sign", default=None)
    s.add_argument("--chi-top", dest="chi_top", default=None)
    s.set_defaults(func=_cmd_geo)

    s = sub.add_parser("twist-value", help="hyperelliptic Meyer value of a Dehn twist")
    s.add_argument("-g", dest="genus", required=True)
    s.add_argument("--sep", default=None, metavar="H")
    s.add_argument("--nonsep", action="store_true")
    s.set_defaults(func=_cmd_twist_value)

    return parser


_RATIONAL_OPTIONS = ("--ksq", "--chi-struct", "--sign", "--chi-top")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each rational option followed by a negative value, such as
    ``--ksq -3/4``, joined into ``--ksq=-3/4``.  argparse reads a separate
    token that starts with '-' as an option unless it looks like a negative
    integer or decimal, so a negative p/q would never reach its option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        seed = parse_int(args.seed)
    except ParseError as exc:
        return _report(exc)
    if args.selftest:
        from . import selftest  # only here: other commands need not compile the suites

        return selftest.run(seed=seed)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        return _report(exc)


def _report(exc: Exception) -> int:
    """Print a failed command's error to stderr and return its exit code:
    2 for a ParseError, 1 for any other error."""
    if isinstance(exc, ParseError):
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
