"""Command-line interface.

Subcommands: check, enumerate, qform (invariants | equivalent | construct),
lattice, construct, extend.  All input and output is JSON; output is
deterministic.  Exit codes: 0 success/constructed, 1 rejected/inadmissible,
2 unknown, 3 usage or input error, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import pipeline, qform, weilcheck
from .exactpoly import DomainError, json_field, rat_from_str
from .pipeline import PipelineConfig, RunStatus
from .qform import GramMatrix, QFormInvariants, QSpace
from .weilcheck import WeilCandidate

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
            name = "<stdin>"
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            name = path
    except OSError as exc:
        print(f"httool: cannot read input: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        print(
            f"httool: malformed JSON in {name} at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE)


def _emit(payload: dict, args) -> None:
    indent = 2 if args.pretty else None
    text = json.dumps(payload, indent=indent, sort_keys=False)
    output = getattr(args, "output", None)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"httool: cannot write output: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    else:
        print(text)


def _cmd_check(args) -> int:
    candidate = WeilCandidate.from_json(_read_json(args.input))
    report = weilcheck.check_all(candidate)
    _emit(report.to_json(), args)
    if report.admissible:
        return EXIT_OK
    if report.failures:
        return EXIT_REJECTED
    return EXIT_UNKNOWN


def _factor_prime_power(q: int) -> tuple[int, int]:
    from ._intfactor import factorize

    if q < 2:
        raise DomainError(f"{q} is not a prime power")
    factors = factorize(q)
    if len(factors) != 1:
        raise DomainError(f"{q} is not a prime power")
    [(p, a)] = factors.items()
    return p, a


def _cmd_enumerate(args) -> int:
    p, a = _factor_prime_power(args.q)
    value_at_one = rat_from_str(args.l1) if args.l1 is not None else None
    not_at_minus_one = rat_from_str(args.not_lm1) if args.not_lm1 is not None else None
    found = weilcheck.enumerate_candidates(
        p,
        a,
        args.degree,
        desk_bound=args.desk_bound,
        value_at_one=value_at_one,
        value_at_minus_one_not=not_at_minus_one,
    )
    payload = {
        "schema_version": weilcheck.SCHEMA_VERSION,
        "q": args.q,
        "p": p,
        "a": a,
        "degree": args.degree,
        "count": len(found),
        "candidates": [c.to_json() for c in found],
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    gram = qform.k3_lattice()
    payload = {
        "schema_version": weilcheck.SCHEMA_VERSION,
        # the lattice is integral: its Gram has den 1
        "gram": [list(row) for row in gram.rows],
        # diagonalize uses congruences of determinant +-1 only, so the
        # product of its diagonal is det(gram)
        "determinant": int(math.prod(qform.diagonalize(gram).diagonal)),
        "invariants": qform.k3_invariants().to_json(),
    }
    _emit(payload, args)
    return EXIT_OK


def _parse_space(obj) -> QSpace:
    """A space from {"diagonal": [...]} or, failing that key, {"gram": [[...]]}."""
    if isinstance(obj, dict) and "diagonal" not in obj and "gram" in obj:
        return qform.diagonalize(GramMatrix.from_json(obj))
    return QSpace.from_json(obj)


def _cmd_qform(args) -> int:
    obj = _read_json(args.input)
    if args.action == "invariants":
        _emit(qform.invariants(_parse_space(obj)).to_json(), args)
        return EXIT_OK
    if args.action == "equivalent":
        first = _parse_space(json_field(obj, "first"))
        second = _parse_space(json_field(obj, "second"))
        _emit({"equivalent": qform.equivalent(first, second)}, args)
        return EXIT_OK
    inv = QFormInvariants.from_json(obj)
    if not qform.admissible(inv):
        _emit({"admissible": False}, args)
        return EXIT_REJECTED
    space = qform.construct_with_invariants(inv)
    _emit({"admissible": True, "space": space.to_json()}, args)
    return EXIT_OK


def _cmd_construct(args) -> int:
    candidate = WeilCandidate.from_json(_read_json(args.input))
    config = PipelineConfig(max_extension_degree=args.max_extension_degree)
    outcome = pipeline.run(candidate, config)
    _emit(outcome.to_json(), args)
    if outcome.status in (RunStatus.CONSTRUCTED, RunStatus.EXISTENCE_ONLY):
        return EXIT_OK
    if outcome.status is RunStatus.REJECTED:
        return EXIT_REJECTED
    return EXIT_UNKNOWN


def _cmd_extend(args) -> int:
    candidate = WeilCandidate.from_json(_read_json(args.input))
    extended = weilcheck.base_extend(candidate, args.n)
    _emit(extended.to_json(), args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="httool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", default="-", help="input JSON file ('-' for stdin)")
        p.add_argument("--output", default=None, help="write output to a file instead of stdout")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p_check = sub.add_parser("check", help="run the five property checks on a candidate")
    common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_enum = sub.add_parser("enumerate", help="desk-scale census of admissible candidates")
    p_enum.add_argument("--q", type=int, required=True, help="prime power q = p**a")
    p_enum.add_argument("--degree", type=int, required=True, help="candidate degree 2d")
    p_enum.add_argument("--desk-bound", type=int, default=8, help="maximal allowed degree")
    p_enum.add_argument("--l1", default=None, help="keep only candidates with L(1) equal to this rational")
    p_enum.add_argument(
        "--not-lm1", default=None, help="drop candidates with L(-1) equal to this rational"
    )
    p_enum.add_argument("--output", default=None)
    p_enum.add_argument("--pretty", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_qform = sub.add_parser("qform", help="quadratic form invariants, equivalence, construction")
    p_qform.add_argument("action", choices=("invariants", "equivalent", "construct"))
    common(p_qform)
    p_qform.set_defaults(func=_cmd_qform)

    p_lattice = sub.add_parser("lattice", help="the K3 Gram matrix and its invariants")
    p_lattice.add_argument("--output", default=None)
    p_lattice.add_argument("--pretty", action="store_true")
    p_lattice.set_defaults(func=_cmd_lattice)

    p_construct = sub.add_parser("construct", help="full pipeline run producing a certificate")
    common(p_construct)
    p_construct.add_argument(
        "--max-extension-degree",
        type=int,
        default=None,
        help="force the CM field to be extended to this absolute degree",
    )
    p_construct.set_defaults(func=_cmd_construct)

    p_extend = sub.add_parser("extend", help="base extension (roots to the n-th power)")
    common(p_extend)
    p_extend.add_argument("--n", type=int, required=True)
    p_extend.set_defaults(func=_cmd_extend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"httool: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a bug, not a verdict: exit 1 would read as "rejected"
        print(f"httool: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
