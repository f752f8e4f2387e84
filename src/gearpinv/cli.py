"""Command line interface.

Every command prints one JSON document to stdout, as one compact line,
with the shape

    {"kind": ..., "n": ..., "format": ..., "payload": ...,
     "metadata": {...}, "checks": [...]}

and exits 0 on success, 1 when a verification check fails, and 2 on
usage or domain errors.  Exact payloads serialize as canonical fraction
strings like "-3/50"; floating payloads serialize as JSON numbers that
round-trip to the same double; a ``verify`` residual that is not finite,
which only a failed exact check gives, is written as null.  Pipe the
output through ``python -m json.tool`` to pretty-print it.

Examples:
    gearpinv gen gear-distance --n 6
    gearpinv gen tree-distance --edges "[[1,2],[2,3],[2,4]]"
    gearpinv pinv --n 5 --method oracle --format rational
    gearpinv spectrum --n 8
    gearpinv laplacian --n 7 --part h
    gearpinv verify --n 6 --tol 1e-9
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction

import numpy as np

from . import __version__
from .edm import balaji_bapat_pinv
from .graphs import _gear_distance_rows, _wheel_distance_rows, gear_distance_closed
from .laplacian import _a_rows, _b_rows, _h_rows, _laplacian_rows
from .pinv import _formula_rows, rational_pinv
from .rational import is_exact, scaled
from .spectral import _eigenvalues, max_eigen_residual
from .trees import tree_distance, unit_tree, weighted_tree
from .verify import run_checks


# Largest n the exact routes (verify, pinv --method oracle|k4) accept.  As
# processes on a 2-core machine with default BLAS threads, verify --n N takes
# about 0.8 s at N = 100, 1 s at 120, 2 s at 150 and 4.2 s at 190, and
# run_checks(200) 4.6 s, so its cost grows about like N^3 there.
# pinv --n 190 --method oracle takes 4.1 s and writes 24 MB, --method k4 3.8 s.
MAX_EXACT_N = 190

# Largest n the dense commands (gen, pinv --method formula, spectrum,
# laplacian) accept.  The output of gen, pinv and laplacian has (2n - 1)^2
# entries, written a row at a time.  At n = 1000 on a 2-core machine, stdout to
# a file, the gear matrices, written from three generating rows, take 0.03 to
# 0.07 s and 31 MB (pinv writes 93 MB); gen wheel-distance, written from two,
# 0.01 s and 30 MB; spectrum, whose eigen-residual check works on the
# (2n - 1) x n matrix of eigenvectors, 0.1 s and 107 MB.  gen
# tree-distance takes trees of up to that largest order, 2n - 1 vertices, within
# MAX_TREE_TEXT below.
MAX_DENSE_N = 1000

# Largest text, in characters, that gen tree-distance may estimate for its exact
# distances: about the 93 MB of pinv --n 1000.  On a 2-core machine the
# 1999-vertex unit path estimates 42 million and takes 3.2 s and 370 MB; paths
# weighted 1/1, 1/2, ... pass up to 460 vertices (1.9 s, 170 MB) and are refused
# from 500; at 800 vertices they took 13 s and 714 MB for a 245 MB payload.
MAX_TREE_TEXT = 10**8


class DomainError(ValueError):
    """Bad argument values that argparse cannot catch."""


def _require_size(n: int, ceiling: int, routes: str) -> None:
    if n > ceiling:
        raise DomainError(f"n = {n} is above {ceiling}, the {routes}' ceiling")


def _require_tree_text(tree) -> None:
    den = math.lcm(*(w.denominator for _, _, w in tree.edges))
    total = sum(w.numerator * (den // w.denominator) for _, _, w in tree.edges)
    # m^2 distances p/q with p <= total and q | den; the 7 covers the rounding of
    # both digit counts, the two quotes, the '/' and the ', '.
    text = tree.num_vertices ** 2 * ((total.bit_length() + den.bit_length()) * math.log10(2) + 7)
    if text > MAX_TREE_TEXT:
        raise DomainError(f"tree distances of about {text:.2g} characters exceed {MAX_TREE_TEXT}")


def _tokens(matrix, fmt: str) -> list[list[str]]:
    """The JSON text of each entry, row by row: fraction strings or round-trip floats.

    Entries are keyed (integers over one denominator, or float bit
    patterns) so each distinct entry is formatted once.  The encoder
    writes all of them in one call; no token contains ", ".
    """
    if fmt == "rational":
        ints, den = scaled(matrix)
        try:
            # A fixed-width sort is much faster than one of Python ints.
            keys = ints.astype(np.int64)
        except OverflowError:
            keys = ints
        values_of = lambda distinct: [str(Fraction(k, den)) for k in distinct.tolist()]
    else:
        try:
            floats = np.asarray(matrix, dtype=float)
        except OverflowError as exc:
            raise DomainError("entries too large for decimal; use --format rational") from exc
        # Bit patterns as keys keep -0.0 apart from 0.0.
        keys = floats.view(np.int64)
        values_of = lambda distinct: distinct.view(float).tolist()
    distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
    values = values_of(distinct)
    tokens = json.dumps(values)[1:-1].split(", ") if values else []
    return np.array(tokens, dtype=object)[inverse].reshape(keys.shape).tolist()


def _matrix_json(matrix, fmt: str) -> Iterator[str]:
    """The JSON text of a matrix payload, one row a piece.

    Every entry is formatted before the first piece is returned, so a
    format error comes before any text.
    """
    rows = _tokens(matrix, fmt)
    texts = (f"{', ' if i else ''}[{', '.join(row)}]" for i, row in enumerate(rows))
    return itertools.chain(["["], texts, ["]"])


def serialize_matrix(matrix, fmt: str) -> str:
    """The JSON text of a matrix payload: fraction strings or round-trip floats."""
    return "".join(_matrix_json(matrix, fmt))


def _rotations(tokens: list[str]) -> Iterator[str]:
    """Rows of the circulant whose first row is ``tokens``, as JSON text after a ", ".

    Row r is the first row rotated r places to the right: the slice of
    the doubled row's text that starts r tokens before its second copy.
    """
    size = len(tokens)
    doubled = ", " + ", ".join(tokens + tokens)
    starts = list(itertools.accumulate([len(t) + 2 for t in tokens + tokens], initial=0))
    for r in range(size):
        yield doubled[starts[size - r]:starts[2 * size - r]]


def _rows_json(rows, fmt: str) -> Iterator[str]:
    """JSON text of ``circulant._circulant_blocks(rows)``, in pieces.

    Only the hub row and the first row of each ring are formatted, all
    before the first piece is returned; every other ring row is its
    ring's first entry (the hub column) and one rotation of block text
    per ring, formed as it is read.
    """
    hub, *rings = _tokens(rows, fmt)
    size = (len(hub) - 1) // len(rings)
    return itertools.chain(["[[", ", ".join(hub), "]"], _ring_rows(rings, size), ["]"])


def _ring_rows(rings: list[list[str]], size: int) -> Iterator[str]:
    """The text of every ring row, in pieces, from the first row of each ring."""
    for row in rings:
        head = f", [{row[0]}"
        for texts in zip(*[_rotations(row[b:b + size]) for b in range(1, len(row), size)]):
            yield head
            yield from texts
            yield "]"


def _document(kind, n, fmt, payload: Iterable[str], parity=None, tolerance=None,
              checks=()) -> Iterator[str]:
    """One compact line of JSON, ending in a newline, in pieces: header, ``payload``, trailer."""
    metadata = {"version": __version__, "parity": parity, "tolerance": tolerance}
    header = (f'{{"kind": {json.dumps(kind)}, "n": {json.dumps(n)}, '
              f'"format": {json.dumps(fmt)}, "payload": ')
    trailer = f', "metadata": {json.dumps(metadata)}, "checks": {json.dumps(list(checks))}}}\n'
    return itertools.chain([header], payload, [trailer])


def _parity(n: int) -> str:
    return "even" if n % 2 == 0 else "odd"


def _pick_format(requested, exact_payload: bool) -> str:
    if requested is None:
        return "rational" if exact_payload else "decimal"
    if requested == "rational" and not exact_payload:
        raise DomainError(
            "rational format needs an exact payload; this one is floating point"
        )
    return requested


# An integer, a ratio of integers or a plain decimal; no exponent, so a
# weight can never ask for a huge power of ten.
_WEIGHT = re.compile(r"\s*[+-]?(\d+(/\d+)?|\d*\.\d+)\s*")


def _parse_weight(weight) -> Fraction:
    if isinstance(weight, bool) or not isinstance(weight, (int, str)):
        raise DomainError("weights must be ints or strings like '3/2'")
    if isinstance(weight, str) and not _WEIGHT.fullmatch(weight):
        raise DomainError(f"bad weight {weight!r}: expected a string like '3/2'")
    try:
        return Fraction(weight)
    except ZeroDivisionError as exc:
        raise DomainError(f"bad weight {weight!r}: zero denominator") from exc


def _parse_edges(text: str):
    try:
        raw = json.loads(text)
        items = [tuple(item) for item in raw]
    except (json.JSONDecodeError, TypeError, RecursionError) as exc:
        raise DomainError(f"cannot parse edge list: {exc}") from exc
    if not items:
        raise DomainError("edge list is empty")
    if not (all(len(e) == 2 for e in items) or all(len(e) == 3 for e in items)):
        raise DomainError("edges must all be [a, b] or all [a, b, weight]")
    for edge in items:
        for vertex in edge[:2]:
            # bool is a subclass of int, so JSON true/false need the exact type.
            if type(vertex) is not int or vertex < 1:
                raise DomainError(f"vertex ids must be integers from 1, got {vertex!r}")
    if len(items[0]) == 2:
        return unit_tree(items)
    return weighted_tree([(a, b, _parse_weight(w)) for a, b, w in items])


def _matrix_document(args, n: int, matrix: np.ndarray, parity=None,
                     rows=False) -> tuple[Iterator[str], int]:
    """The document of a matrix command; the format follows the payload.

    With ``rows`` the matrix is given by its generating rows alone
    (``circulant._circulant_blocks``) and written from them.
    """
    fmt = _pick_format(args.format, is_exact(matrix))
    payload = _rows_json(matrix, fmt) if rows else _matrix_json(matrix, fmt)
    return _document("matrix", n, fmt, payload, parity=parity), 0


def cmd_gen(args) -> tuple[Iterator[str], int]:
    if args.kind == "tree-distance":
        if args.edges is None:
            raise DomainError("tree-distance needs --edges")
        if args.n is not None:
            raise DomainError("tree-distance takes no --n: the edges fix the size")
        tree = _parse_edges(args.edges)
        _require_size(tree.num_vertices, 2 * MAX_DENSE_N - 1, "dense commands")
        _require_tree_text(tree)
        return _matrix_document(args, tree.num_vertices, tree_distance(tree))
    if args.n is None:
        raise DomainError(f"{args.kind} needs --n")
    if args.edges is not None:
        raise DomainError(f"{args.kind} takes no --edges")
    _require_size(args.n, MAX_DENSE_N, "dense commands")
    rows_of = {"gear-distance": _gear_distance_rows, "wheel-distance": _wheel_distance_rows}
    return _matrix_document(args, args.n, rows_of[args.kind](args.n), _parity(args.n), rows=True)


def cmd_pinv(args) -> tuple[Iterator[str], int]:
    if args.method in ("oracle", "k4"):
        _require_size(args.n, MAX_EXACT_N, "exact routes")
    else:
        _require_size(args.n, MAX_DENSE_N, "dense commands")
    if args.method == "oracle":
        matrix = rational_pinv(gear_distance_closed(args.n))
    elif args.method == "k4":
        matrix = balaji_bapat_pinv(gear_distance_closed(args.n))
    else:
        return _matrix_document(args, args.n, _formula_rows(args.n), _parity(args.n), rows=True)
    return _matrix_document(args, args.n, matrix, _parity(args.n))


def cmd_spectrum(args) -> tuple[Iterator[str], int]:
    n = args.n
    _require_size(n, MAX_DENSE_N, "dense commands")
    fmt = _pick_format(args.format, False)
    values = _eigenvalues(n).tolist()
    payload = {
        "lambda": values[:2],
        "theta": values[2:],
        "null_multiplicity": n - 1,
        "max_residual": max_eigen_residual(n),
    }
    return _document("spectrum", n, fmt, [json.dumps(payload)], parity=_parity(n)), 0


def cmd_laplacian(args) -> tuple[Iterator[str], int]:
    n = args.n
    _require_size(n, MAX_DENSE_N, "dense commands")
    if args.part != "b" and args.k is not None:
        raise DomainError(f"--k applies only to part b, not part {args.part}")
    if args.part == "b" and args.k is None:
        raise DomainError("part b needs --k")
    rows_of = {"a": _a_rows, "h": _h_rows, "full": _laplacian_rows,
               "b": lambda order: _b_rows(order, args.k)}
    return _matrix_document(args, n, rows_of[args.part](n), _parity(n), rows=True)


def cmd_verify(args) -> tuple[Iterator[str], int]:
    if not 0 <= args.tol < math.inf:
        raise DomainError(f"--tol must be a finite number at least 0, got {args.tol}")
    _require_size(args.n, MAX_EXACT_N, "exact routes")
    fmt = _pick_format(args.format, False)
    results = run_checks(args.n, tol=args.tol)
    # A failed exact check may report an infinite residual, which JSON cannot
    # carry: it is written as null.
    checks = [
        {"name": r.name, "pass": r.passed,
         "residual": r.residual if math.isfinite(r.residual) else None}
        for r in results
    ]
    doc = _document(
        "verify-report",
        args.n,
        fmt,
        [json.dumps(
            {"checks_passed": sum(r.passed for r in results), "checks_total": len(results)}
        )],
        parity=_parity(args.n),
        tolerance=args.tol,
        checks=checks,
    )
    return doc, 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gearpinv",
        description="Gear graph distance matrices and their pseudoinverses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, required=True, help="wheel size, at least 4")
        p.add_argument("--format", choices=["rational", "decimal"], default=None)

    p_gen = sub.add_parser("gen", help="emit a distance matrix")
    p_gen.add_argument(
        "kind", choices=["gear-distance", "wheel-distance", "tree-distance"]
    )
    p_gen.add_argument("--n", type=int, default=None, help="wheel size, at least 4")
    p_gen.add_argument("--edges", default=None, help='JSON, e.g. "[[1,2],[2,3]]"')
    p_gen.add_argument("--format", choices=["rational", "decimal"], default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_pinv = sub.add_parser("pinv", help="pseudoinverse of a gear distance matrix")
    add_common(p_pinv)
    p_pinv.add_argument(
        "--method", choices=["formula", "oracle", "k4"], default="formula"
    )
    p_pinv.set_defaults(func=cmd_pinv)

    p_spec = sub.add_parser("spectrum", help="closed-form spectrum with residuals")
    add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_lap = sub.add_parser("laplacian", help="assembled pseudoinverse or one part")
    add_common(p_lap)
    p_lap.add_argument("--part", choices=["a", "h", "b", "full"], default="full")
    p_lap.add_argument("--k", type=int, default=None, help="pair index for part b")
    p_lap.set_defaults(func=cmd_laplacian)

    p_verify = sub.add_parser("verify", help="run the cross-check suite")
    add_common(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first ``main`` call and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, code = args.func(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Each piece is written as it comes: no whole document is ever held.
    write = sys.stdout.write
    for piece in doc:
        write(piece)
    return code


if __name__ == "__main__":
    sys.exit(main())
