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
from .symplectic import SymplecticMatrix, _from_rows

def _fmt(value: int | Fraction) -> str:
    """An int's digits, or a Fraction's ``str``: ``p/q``, or ``p`` when ``q == 1``."""
    try:
        return str(value)
    except ValueError:  # more digits than str() converts
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"the result has more than {limit} digits, the most meyersig prints"
        ) from None


def _symplectic_arg(text: str, g: int | None = None) -> SymplecticMatrix:
    m = _from_rows(parse_matrix(text))  # parse_matrix has checked the rows
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


def _tau_arguments(parser) -> None:
    parser.add_argument("-g", dest="genus", default=None)
    parser.add_argument("a", help="matrix, e.g. \"1,1;0,1\" or JSON [[1,1],[0,1]]")
    parser.add_argument("b")


def _cmd_tau(args) -> int:
    genus = _optional_int(args.genus)
    a = _symplectic_arg(args.a, genus)
    b = _symplectic_arg(args.b, genus)
    print(_fmt(tau_sp(a, b)))
    return 0


def _matrix_argument(parser) -> None:
    parser.add_argument("matrix")


def _cmd_phi1(args) -> int:
    print(_fmt(phi1(_symplectic_arg(args.matrix))))
    return 0


def _dedekind_arguments(parser) -> None:
    parser.add_argument("a")
    parser.add_argument("c")


def _cmd_dedekind(args) -> int:
    print(_fmt(dedekind_sum(parse_int(args.a), parse_int(args.c))))
    return 0


def _cmd_rademacher(args) -> int:
    print(_fmt(rademacher(_symplectic_arg(args.matrix))))
    return 0


def _order_arguments(parser) -> None:
    parser.add_argument("-p", dest="presentation", required=True, metavar="FILE", type=Path)


def _cmd_order(args) -> int:
    p = load_presentation(args.presentation)
    order = class_order(p)
    print("infinite" if isinstance(order, Unbounded) else str(order.n))
    return 0


def _phi_arguments(parser) -> None:
    _order_arguments(parser)
    parser.add_argument("word")


def _cmd_phi(args) -> int:
    p = load_presentation(args.presentation)
    word = p.word(args.word)  # a bad or over-long word fails before synthesis
    print(_fmt(synthesize_meyer(p)(word)))
    return 0


def _local_sig_arguments(parser) -> None:
    parser.add_argument("-f", dest="fibration", required=True, metavar="FILE", type=Path)
    parser.add_argument("-p", dest="presentation", metavar="FILE", type=Path)


def _cmd_local_sig(args) -> int:
    p = None if args.presentation is None else load_presentation(args.presentation)
    fd = load_fibration(args.fibration, p)
    values = local_signatures(fd)
    total = closed_total(fd, values)  # before any output, so a failed check prints nothing
    lines = []
    try:  # one print; a value with too many digits still follows the lines before it
        for k, (germ, value) in enumerate(zip(fd.germs, values)):
            lines.append(f"{germ.label or f'germ {k}'}: {_fmt(value)}")
        lines.append(f"total: {_fmt(total)}")
    finally:
        if lines:
            print("\n".join(lines))
    return 0


def _euler_arguments(parser) -> None:
    parser.add_argument("-g", dest="genus", required=True)
    parser.add_argument("-b", dest="base", required=True)
    parser.add_argument("--eps", nargs="*", default=None, help="Euler contributions")
    parser.add_argument("--chi", nargs="*", default=None, help="singular-fiber Euler numbers")


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


def _geo_arguments(parser) -> None:
    parser.add_argument("--ksq", default=None)
    parser.add_argument("--chi-struct", dest="chi_struct", default=None)
    parser.add_argument("--sign", default=None)
    parser.add_argument("--chi-top", dest="chi_top", default=None)


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


def _twist_value_arguments(parser) -> None:
    parser.add_argument("-g", dest="genus", required=True)
    parser.add_argument("--sep", default=None, metavar="H")
    parser.add_argument("--nonsep", action="store_true")


def _cmd_twist_value(args) -> int:
    if args.nonsep and args.sep is not None:
        raise ValueError("give either --nonsep or --sep h, not both")
    print(_fmt(hyperelliptic_twist_value(parse_int(args.genus), _optional_int(args.sep))))
    return 0


# Each command's help line, handler and arguments, defined once: the full
# parser nests a subparser per entry, and _command_parser builds the same
# parser on its own.
_COMMANDS = {
    "tau": ("signature cocycle tau(A, B)", _cmd_tau, _tau_arguments),
    "phi1": ("genus-1 Meyer function of a matrix", _cmd_phi1, _matrix_argument),
    "dedekind": ("Dedekind sum s(a, c)", _cmd_dedekind, _dedekind_arguments),
    "rademacher": ("Rademacher function of a matrix", _cmd_rademacher, _matrix_argument),
    "order": ("order of the signature class of a presentation", _cmd_order, _order_arguments),
    "phi": ("synthesized Meyer function on a word", _cmd_phi, _phi_arguments),
    "local-sig": ("local signatures and total of a fibration file", _cmd_local_sig, _local_sig_arguments),
    "euler": ("Euler number of a fibered 4-manifold", _cmd_euler, _euler_arguments),
    "geo": ("convert between (K^2, chi_O) and (Sign, chi_top)", _cmd_geo, _geo_arguments),
    "twist-value": ("hyperelliptic Meyer value of a Dehn twist", _cmd_twist_value, _twist_value_arguments),
}

# The full parser's long options, which it matches against every token of
# argv, the tokens after the command name included.
_TOP_LEVEL_LONG_OPTIONS = ("--help", "--seed", "--selftest")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The full ``meyersig`` parser: the top-level options and one
    subparser per command, built once per process.

    :func:`main` runs it only when argv does not start with a command
    name (no arguments, ``-h``, ``--seed``/``--selftest``, an unknown
    command), when a token could abbreviate one of its long options, and
    to print the "unrecognized arguments" error; every other argv is read
    by :func:`_command_parser` alone.  Each ``parse_args`` call fills a
    fresh namespace, so no option value carries over from one
    :func:`main` call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="meyersig",
        description="Exact signature cocycle, Meyer function, and local-signature computations.",
    )
    parser.add_argument("--seed", default="0", help="seed for --selftest")
    parser.add_argument(
        "--selftest", action="store_true", help="run the invariant suites and exit"
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_line, _, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


@cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built once per process: the parser that
    :func:`build_parser` nests for ``name``, with the same ``prog``, usage,
    help and error text."""
    parser = argparse.ArgumentParser(prog=f"meyersig {name}")
    _COMMANDS[name][2](parser)
    return parser


def _could_name_a_top_level_option(token: str) -> bool:
    """Whether the full parser would match token, up to any '=', against its
    own long options.  It does so before its command's subparser reads
    anything, so an ambiguous abbreviation such as ``--se`` fails there
    even after the command name."""
    if token[:2] != "--":
        return False
    prefix = token.partition("=")[0]
    return any(option.startswith(prefix) for option in _TOP_LEVEL_LONG_OPTIONS)


def _parse(argv: list[str]):
    """The command argv runs (None for none) and its namespace.

    An argv that starts with a command name is read by that command's own
    parser; the full parser reads it again only when that parser leaves
    arguments over, and then fails with its "unrecognized arguments"
    error.  A ``--selftest`` runs no command.
    """
    if argv and argv[0] in _COMMANDS and not any(map(_could_name_a_top_level_option, argv)):
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return argv[0], args
    args = build_parser().parse_args(argv)
    return (None if args.selftest else args.command), args


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
    try:
        command, args = _parse(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if command is None:
        if args.selftest:
            from . import selftest  # only here: other commands need not compile the suites

            try:
                seed = parse_int(args.seed)
            except ParseError as exc:
                return _report(exc)
            return selftest.run(seed=seed)
        build_parser().print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[command][1](args)
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
