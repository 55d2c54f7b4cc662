"""Command-line front end: coefficients, expansions, verdicts, witnesses, sweeps.

Exit codes: 0 success, 1 computational disagreement, 2 usage error.  Every
ValueError a command raises, whether from its own argument checks or from the
library, is a usage error: main prints it as one `error:` line on stderr and
returns 2.  Output is plain text by default or JSON with --format json;
identical invocations print identical bytes.  The environment variable
HIVE_LR_MAX_WEIGHT (default 40) caps the weight of every partition argument,
checked before the partition is built, the total weight a single query may
ask for, and the side of a `hives --n` triangle.

Each command imports the parts of the library it uses when it runs, and json
only where it prints JSON, so that building the parser (and `lrhive --help`)
loads none of them.
"""

from __future__ import annotations

import argparse
import os
import sys


class UsageError(ValueError):
    pass


def _max_weight_cap():
    raw = os.environ.get("HIVE_LR_MAX_WEIGHT", "40")
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"HIVE_LR_MAX_WEIGHT must be an integer, got {raw!r}") from exc


def _check_weight(weight, what="total weight"):
    cap = _max_weight_cap()
    if weight > cap:
        raise UsageError(f"{what} {weight} exceeds HIVE_LR_MAX_WEIGHT = {cap}")


def _parse(parse, text):
    """Parse a partition or skew shape argument, capped by HIVE_LR_MAX_WEIGHT.

    The parser weighs each partition before building it, so an argument like
    1^1000000000 is refused without allocating its parts.
    """
    from .partitions import WeightCapError

    cap = _max_weight_cap()
    try:
        return parse(text, max_weight=cap)
    except WeightCapError as exc:
        raise UsageError(f"total weight {exc.weight} exceeds HIVE_LR_MAX_WEIGHT = {cap}") from None


def _parse_params(text):
    params = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise UsageError(f"bad parameter {item!r}; expected name=value")
        if key in params:
            raise UsageError(f"parameter {key!r} given twice")
        try:
            params[key] = int(value)
        except ValueError as exc:
            raise UsageError(f"parameter {key!r} needs an integer value") from exc
    return params


def _parse_box(text):
    m, sep, n = text.lower().partition("x")
    if not sep:
        raise UsageError(f"bad box {text!r}; expected mXn, e.g. 3x3")
    try:
        m, n = int(m), int(n)
    except ValueError as exc:
        raise UsageError(f"bad box {text!r}; sides must be integers") from exc
    if m < 0 or n < 0:
        raise UsageError(f"box sides must be non-negative, got {m}x{n}")
    return m, n


def _show(args, payload, lines):
    """Print the JSON payload or the text lines, as --format asks."""
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _query(args, kind):
    """Parse a product or skew query and check its weight.

    Returns the instance (the arguments its expansion and its classifier
    take), the JSON `query`, the expansion function and the classifier.
    """
    from . import classify, expansions

    if kind == "product":
        from .partitions import parse_partition

        mu = _parse(parse_partition, args.mu)
        nu = _parse(parse_partition, args.nu)
        _check_weight(mu.weight + nu.weight)
        query = {"type": "product", "mu": list(mu.parts), "nu": list(nu.parts)}
        return (mu, nu), query, expansions.product_expansion, classify.stembridge_mf
    from .skew import parse_skew_shape

    shape = _parse(parse_skew_shape, args.shape)
    query = {"type": "skew", "outer": list(shape.outer.parts), "inner": list(shape.inner.parts)}
    return (shape,), query, expansions.skew_expansion, classify.gty_mf


def _lr_query(args):
    """Parse --lambda, --mu and --nu; returns them and the command's JSON `query`."""
    from .partitions import parse_partition

    lam, mu, nu = (_parse(parse_partition, text) for text in (args.lam, args.mu, args.nu))
    query = {"type": args.command, "lambda": list(lam.parts), "mu": list(mu.parts), "nu": list(nu.parts)}
    return lam, mu, nu, query


def _cmd_lrcoef(args):
    from .expansions import lr_coefficient

    lam, mu, nu, query = _lr_query(args)
    if args.method == "both":
        by_hive = lr_coefficient(lam, mu, nu, "hive")
        by_tableau = lr_coefficient(lam, mu, nu, "tableau")
        payload = {"query": query, "method": "both", "hive": by_hive, "tableau": by_tableau}
        _show(args, payload, [str(by_hive), str(by_tableau)])
        if by_hive != by_tableau:
            print(f"error: hive count {by_hive} != tableau count {by_tableau}", file=sys.stderr)
            return 1
        return 0
    value = lr_coefficient(lam, mu, nu, method=args.method)
    _show(args, {"query": query, "method": args.method, "coefficient": value}, [str(value)])
    return 0


def _cmd_expansion(args):
    from .partitions import format_partition

    instance, query, expand, _ = _query(args, args.command)
    expansion = expand(*instance, method=args.method)
    terms = expansion.terms()
    top = expansion.max_multiplicity()
    payload = {
        "query": query,
        "method": args.method,
        "terms": [{"partition": list(p.parts), "coeff": c} for p, c in terms],
        "max_multiplicity": top,
    }
    lines = [f"{format_partition(p)}: {c}" for p, c in terms]
    _show(args, payload, [*lines, f"max multiplicity: {top}"])
    return 0


def _cmd_mf(args):
    from .classify import find_multiplicity_witness
    from .partitions import format_partition

    if args.kind == "product" and (args.mu is None or args.nu is None):
        raise UsageError("mf product needs --mu and --nu")
    if args.kind == "skew" and args.shape is None:
        raise UsageError("mf skew needs --shape")
    instance, _, expand, classifier = _query(args, args.kind)
    verdict = classifier(*instance)
    cases = verdict.sorted_cases()
    witness = None
    if args.check:
        expansion = expand(*instance, method=args.method)
        enumerated_free = expansion.max_multiplicity() <= 1
        witness = find_multiplicity_witness(expansion)

    payload = {
        "multiplicity_free": verdict.multiplicity_free,
        "cases": cases,
        "witness": (
            {"partition": list(witness[0].parts), "coeff": witness[1]} if witness else None
        ),
    }
    if verdict.multiplicity_free:
        lines = [f"multiplicity-free ({', '.join(cases)})"]
    else:
        lines = ["not multiplicity-free"]
    if witness:
        lines.append(f"witness: {format_partition(witness[0])} (coefficient {witness[1]})")
    _show(args, payload, lines)
    if args.check and enumerated_free != verdict.multiplicity_free:
        print(
            f"error: classifier says multiplicity-free={verdict.multiplicity_free} "
            f"but enumeration says {enumerated_free}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_witness(args):
    from .classify import build_witness
    from .partitions import format_partition

    witness = build_witness(args.case, **_parse_params(args.params or ""))
    _check_weight(witness.lam.weight)
    count = witness.verify()
    ok = witness.holds(count)
    shapes = {
        "lambda": witness.lam, "mu": witness.mu, "nu": witness.nu, "constructed": witness.constructed
    }
    payload = {
        "case": witness.case_label,
        **{name: list(p.parts) for name, p in shapes.items()},
        "expected": witness.expected,
        "count": count,
        "holds": ok,
    }
    lines = [
        f"case: {witness.case_label}",
        *(f"{name}: {format_partition(p)}" for name, p in shapes.items()),
        f"expected: {witness.expected}",
        f"count: {count}",
    ]
    _show(args, payload, lines)
    if not ok:
        print(f"error: count {count} does not satisfy '{witness.expected}'", file=sys.stderr)
        return 1
    return 0


def _cmd_hives(args):
    from .hives import default_hive_side, enumerate_lr_hives

    lam, mu, nu, query = _lr_query(args)
    if args.n is not None:
        if args.n < 0:
            raise UsageError(f"hive side must be non-negative, got {args.n}")
        _check_weight(args.n, "hive side")
    n = args.n if args.n is not None else default_hive_side(lam, mu, nu)
    hives = enumerate_lr_hives(lam, mu, nu, n)
    payload = {"query": query, "n": n, "count": len(hives)}
    lines = [str(len(hives))]
    if args.dump:
        payload["hives"] = [h.diagonals() for h in hives]
        for idx, rows in enumerate(payload["hives"], start=1):
            lines.append(f"hive {idx}:")
            lines.extend(" ".join(str(v) for v in row) for row in rows)
    _show(args, payload, lines)
    return 0


def _cmd_verify(args):
    from .sweep import verify_sweep

    box = _parse_box(args.box)
    _check_weight(box[0] * box[1])
    report = verify_sweep(args.family, box, sample=args.sample, seed=args.seed, method=args.method)
    payload = {
        "family": args.family,
        "box": list(box),
        "method": args.method,
        "instances": report.instances,
        "agree": report.agreements,
        "disagree": report.disagree,
        "disagreements": report.disagreements,
    }
    lines = [
        f"family: {args.family}",
        f"box: {box[0]}x{box[1]}",
        f"method: {args.method}",
        f"instances: {report.instances}",
        f"agree: {report.agreements}",
        f"disagree: {report.disagree}",
    ]
    if report.disagreements:
        import json

        lines += (f"disagreement: {json.dumps(d)}" for d in report.disagreements)
    _show(args, payload, lines)
    return 1 if report.disagreements else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrhive",
        description="Littlewood-Richardson coefficients by hive enumeration, with a tableau oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("lrcoef", help="one coefficient")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--method", choices=("hive", "tableau", "both"), default="hive")
    add_format(p)
    p.set_defaults(func=_cmd_lrcoef)

    p = sub.add_parser("product", help="expansion of a Schur product")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--method", choices=("hive", "tableau"), default="hive")
    add_format(p)
    p.set_defaults(func=_cmd_expansion)

    p = sub.add_parser("skew", help="expansion of a skew Schur function")
    p.add_argument("--shape", required=True, help="OUTER/INNER, e.g. 4,3,2,1/2,2")
    p.add_argument("--method", choices=("hive", "tableau"), default="hive")
    add_format(p)
    p.set_defaults(func=_cmd_expansion)

    p = sub.add_parser("mf", help="multiplicity-free verdict")
    p.add_argument("kind", choices=("product", "skew"))
    p.add_argument("--mu")
    p.add_argument("--nu")
    p.add_argument("--shape")
    p.add_argument("--check", action="store_true", help="also enumerate and compare")
    p.add_argument("--method", choices=("hive", "tableau"), default="hive")
    add_format(p)
    p.set_defaults(func=_cmd_mf)

    p = sub.add_parser("witness", help="construct and verify a multiplicity witness")
    p.add_argument("case", help="Q1..Q3, T1i..T3ii, U1i..U3ii (parens allowed: 'T1(i)')")
    p.add_argument("--params", required=True, help="comma-separated name=value pairs")
    add_format(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("hives", help="count or dump LR-hives")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--dump", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_hives)

    p = sub.add_parser("verify", help="differential sweep of a classifier")
    p.add_argument("--family", choices=("products", "skews"), required=True)
    p.add_argument("--box", required=True, help="mXn, e.g. 3x3")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("hive", "tableau"), default="hive")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
