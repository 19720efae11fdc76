"""Command-line interface: construction, analysis, counting, search, simulation.

Subcommands
-----------
kernel      --q 2 --poly 1,1,1 --n 4          kernel basis of one linear CA
build-code  --q 2 --k 3 [--gcd 1,1]           uniform-GCD family and its code
analyze     --code code.json                  parameters and GCD profile
count       --q 2 --k 3 [--t 1] [--csv]       irreducible counts, N_k, family sizes
search-max  --q 2 --k 4 --t 0 [--budget 512]  exact maximum family (oracle)
simulate    --code code.json --erasures 1 --errors 0 --trials 1000 --seed 7
            [--out stats.json] [--csv]        operator-channel statistics

Every successful run prints one JSON document with an embedded ``manifest``
(subcommand, all flags, field spec, version, seed where applicable), making
the run replayable.  Output is byte-stable: nothing derives from the clock,
and every document (stdout, ``--out`` and the error objects) is printed as
the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``: two-space indent,
sorted keys, ASCII escapes.  One writer prints them on every Python version:
``_emit`` streams a document in pieces, one per key, one per codeword and one
per row of a table.  A codeword's text is written off its entry sequence
(``Subspace.entries``, which its code also sorts by) in one join, and a list
of polynomials' text through the field's tables of text
(``Polynomial.to_strings`` and ``displays``), so no CLI path builds a
``to_json`` list.  The payload is built whole before the first byte is
written; a write that fails on the stream leaves part of the document
written.  Exit codes: 0 success, 1 domain error (JSON error object on
stdout) or a stdout that cannot be written (one line on stderr), 2 usage
error (argparse).

Polynomials are given in ascending-coefficient text form ("1,1,1" is
1 + X + X^2); the human-readable rendering appears in *_display fields and
is never parsed back.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterator

from . import __version__
from .algebra import GF, Polynomial, TextTable
from .channel import ChannelConfig, simulate
from .errors import DegreeTooLarge, DomainError, NonPositive, ParseError
from .families import (
    CAFamily,
    GcdProfile,
    code_from_family,
    count_irreducibles,
    expected_uniform_gcd_size,
    max_coprime_family_size,
    search_max_family,
    shared_gcd_degrees,
    uniform_gcd_family,
)
from .ca import LinearCA
from .subspaces import GrassmannianCode, Subspace


def _manifest(args: argparse.Namespace) -> dict:
    flags = {k: v for k, v in vars(args).items() if k != "command"}
    manifest = {"subcommand": args.command, "version": __version__, "args": flags}
    if "q" in flags:
        manifest["field"] = flags["q"]
    if "seed" in flags:
        manifest["seed"] = flags["seed"]
    return manifest


def _emit(payload: dict, file=None) -> None:
    """Print a document in the one pinned byte format, to stdout or ``file``.

    The pieces of ``_pieces`` go to the stream as they are made, so no more
    than one codeword's or one table row's text is held at a time.  The
    payload is built whole before the first byte is written, so a write
    fails only on a programming error (a key that is no str or a value of no
    JSON type, ``TypeError``) or on the stream itself (``OSError``); either
    may leave part of the document written.
    """
    out = sys.stdout if file is None else file
    out.writelines(_pieces(payload, ""))
    out.write("\n")


def _pieces(x, pad: str) -> Iterator[str]:
    """The text of ``_dump(x, pad)`` in pieces: one per key of each dict, one
    per codeword of a list of codewords and one per row of a table (a tuple
    of tuples, such as the intersection table); any other value goes whole
    into its key's piece."""
    if type(x) is dict and x:
        if set(map(type, x)) != {str}:
            raise TypeError("keys must be str")
        inner, lead = pad + "  ", "{\n"
        for key, value in sorted(x.items()):
            head = lead + inner + encode_basestring_ascii(key) + ": "
            if type(value) is dict or _is_streamed(value):
                yield head
                yield from _pieces(value, inner)
            else:
                yield head + _dump(value, inner)
            lead = ",\n"
        yield "\n" + pad + "}"
    elif _is_streamed(x):
        inner, lead = pad + "  ", "[\n"
        texts = _codewords(x, inner) if type(x[0]) is Subspace else map(_dump, x, itertools.repeat(inner))
        for text in texts:
            yield lead + inner + text
            lead = ",\n"
        yield "\n" + pad + "]"
    else:
        yield _dump(x, pad)


def _is_streamed(x) -> bool:
    """A list of codewords or a table: written one element a piece."""
    return bool(x) and (
        type(x) is list and type(x[0]) is Subspace or type(x) is tuple and type(x[0]) is tuple
    )


def _dump(x, pad: str) -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` at indent ``pad``, for
    documents with str keys only; a ``Subspace`` is written as its
    ``to_json`` layout."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return int.__repr__(x)
    if kind is bool or kind is float or x is None:
        return json.dumps(x)
    if kind is Subspace:
        return next(_codewords([x], pad))
    if kind is dict:
        return "".join(_pieces(x, pad)) if x else "{}"
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        inner, kinds = pad + "  ", set(map(type, x))
        if kinds == {int}:
            items = map(int.__repr__, x)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, x)
        else:
            items = [_dump(value, inner) for value in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _codewords(words: list[Subspace], pad: str) -> Iterator[str]:
    """``_dump(s.to_json(), pad)`` of each codeword of a list over one field
    and n, off its entry sequence (``Subspace.entries``): one C-level ``map``
    through a table of each entry's text and the separator after it, one for
    the rows' last entries, and one join."""
    field, n = words[0].field, words[0].ambient_n
    row_pad = pad + "  "
    entry_pad = row_pad + "  "
    head, close = "[\n" + row_pad + "[\n" + entry_pad, "\n" + row_pad + "]\n" + pad + "]"
    between, new_row = ",\n" + entry_pad, "\n" + row_pad + "],\n" + row_pad + "[\n" + entry_pad
    # str gives a code's text and a GF(2) digit's; a GF(p^m) entry is a list
    text = str if field.m == 1 else lambda code: _dump(list(field.decode(code)), entry_pad)
    inside = TextTable(lambda key: text(key) + between)
    last = TextTable(lambda key: text(key) + new_row)
    for s in words:
        entries = s.entries()
        if not entries:
            yield "[]"
            continue
        texts = [head, *map(inside.__getitem__, entries)]
        texts[n::n] = map(last.__getitem__, entries[n - 1 :: n])
        texts[-1] = texts[-1][: -len(new_row)] + close
        yield "".join(texts)


def _load_code_file(path: str) -> tuple[GrassmannianCode, dict]:
    """Read a code file: bare {"q","n","codewords"} or a build-code document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError:
            raise  # reported under its own name
        except (ValueError, RecursionError) as exc:  # no UTF-8, too deep, too many digits
            raise ParseError(f"{path} is no readable JSON document: {exc}") from None
    bare = data.get("code", data) if isinstance(data, dict) else None
    if not isinstance(bare, dict) or "codewords" not in bare:
        raise ParseError(f"{path} does not contain a code object")
    return GrassmannianCode.from_json(bare), data


# -- subcommand handlers ------------------------------------------------------------


def _cmd_kernel(args) -> dict:
    field = GF.from_spec(args.q)
    poly = Polynomial.from_string(field, args.poly)
    ca = LinearCA(poly, args.n)
    kernel = ca.kernel()
    return {
        "manifest": _manifest(args),
        "q": field.spec,
        "n": args.n,
        "k": ca.k,
        "rule": poly.to_string(),
        "rule_display": poly.display(),
        "dim": kernel.dim,
        "basis": kernel,
    }


def _cmd_build_code(args) -> dict:
    field = GF.from_spec(args.q)
    g = Polynomial.from_string(field, args.gcd)
    members, max_gcd = uniform_gcd_family(args.k, g)
    code = code_from_family(CAFamily(members))
    t = int(g.degree)
    payload = {
        "manifest": _manifest(args),
        "q": field.spec,
        "k": args.k,
        "t": t,
        "g": g.to_string(),
        "g_display": g.display(),
        "family": Polynomial.to_strings(members),
        "family_display": Polynomial.displays(members),
        "size": len(members),
        "expected_size": expected_uniform_gcd_size(args.k, t, field),
        "n": 2 * args.k,
        "code": {"codewords": list(code), "n": code.ambient_n, "q": field.spec},
        "predicted_min_distance": None if max_gcd is None else 2 * args.k - 2 * max_gcd,
    }
    return payload


def _cmd_analyze(args) -> dict:
    code, document = _load_code_file(args.code)
    params = code.params()
    inter = code.pairwise_intersection_dims()
    profile = GcdProfile.from_table(inter) if len(code) >= 2 else None
    payload = {
        "manifest": _manifest(args),
        "q": code.field.spec,
        "params": {
            "n": params.n,
            "max_dim": params.max_dim,
            "log_q_size": params.log_q_size,
            "min_distance": params.min_distance,
            "size": params.size,
            "constant_dim": code.constant_dim,
        },
        "gcd_profile": {
            "max_gcd_degree": None if profile is None else profile.max_gcd_degree,
            "witness_pair": None if profile is None else list(profile.witness_pair),
            "table": inter,
        },
    }
    if "family" in document and "q" in document:
        payload["family_check"] = _family_check(code, document["q"], document["family"], inter)
    return payload


def _family_check(code: GrassmannianCode, spec, family, inter) -> dict:
    """Whether the listed family generates the code, and its predicted D.

    Read in codeword order, the family's pairs that share a factor line up
    with the intersection table ``inter``.  Every listed degree is at least
    1, so the pairs agree with the whole table when each listed degree is
    its entry and the table has no other nonzero entry.
    """
    if not isinstance(spec, str) or not isinstance(family, list) or not all(
        isinstance(s, str) for s in family
    ):
        raise ParseError("a build-code document needs a string q and a family of strings")
    field = code.field if spec == code.field.spec else GF.from_spec(spec)
    listed = CAFamily(Polynomial.from_strings(field, family))
    ordered = listed.reordered(code.rules)
    check = {"family": family, "consistent": ordered is not None}
    if len(listed) >= 2:
        shared = shared_gcd_degrees(listed if ordered is None else ordered)
        check["predicted_min_distance"] = 2 * listed.k - 2 * max(shared.values(), default=0)
        check["consistent"] = (
            ordered is not None
            and all([inter[j][i] == e for (i, j), e in shared.items()])
            and sum([len(row) - row.count(0) for row in inter]) == len(shared)
        )
    return check


def _cmd_count(args) -> dict:
    field = GF.from_spec(args.q)
    k = args.k
    # every count is at most q^k, and Python prints no int of more than
    # ``limit`` digits (0: no limit); q^k > 16^limit > 10^limit when k > 4*limit
    limit = getattr(sys, "get_int_max_str_digits", int)()  # absent before 3.10.7
    if limit and (k > 4 * limit or field.q**k >= 10**limit):
        raise DegreeTooLarge(f"counts for k = {k} can exceed the {limit} digits Python prints")
    terms = {
        str(j): {
            "gauss": count_irreducibles(j, field),
            "x_excluded": count_irreducibles(j, field, exclude_x=True),
        }
        for j in range(1, k + 1)
    }
    n_k = max_coprime_family_size(k, field)
    payload = {
        "manifest": _manifest(args),
        "q": field.spec,
        "k": k,
        "terms": terms,
        "N_k": n_k,
        "N_k_with_x": _with_x(n_k, k),
    }
    if args.t is not None:
        size = expected_uniform_gcd_size(k, args.t, field)
        payload["t"] = args.t
        payload["uniform_gcd_size"] = size
        payload["uniform_gcd_size_with_x"] = _with_x(size, k - args.t)
    return payload


def _with_x(size: int, r: int) -> int:
    """A family size for cofactor degree r, with X counted too.

    X is the one irreducible the primed counts leave out; every count with
    r >= 1 has exactly one degree-1 term.
    """
    return size + (r >= 1)


def _cmd_search_max(args) -> dict:
    if args.budget < 1:
        raise NonPositive(f"--budget must be >= 1, got {args.budget}")
    field = GF.from_spec(args.q)
    members, max_gcd = search_max_family(args.k, args.t, field, budget=args.budget)
    payload = {
        "manifest": _manifest(args),
        "q": field.spec,
        "k": args.k,
        "t": args.t,
        "budget": args.budget,
        "size": len(members),
        "family": Polynomial.to_strings(members),
        "family_display": Polynomial.displays(members),
    }
    if max_gcd is not None:
        payload["max_gcd_degree"] = max_gcd
        payload["min_distance"] = 2 * args.k - 2 * max_gcd
    return payload


def _cmd_simulate(args) -> dict:
    code, _document = _load_code_file(args.code)
    cfg = ChannelConfig(erasures=args.erasures, error_dims=args.errors, seed=args.seed)
    stats = simulate(code, cfg, args.trials)
    payload = {"manifest": _manifest(args), **stats}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit(payload, fh)
    return payload


_HANDLERS = {
    "kernel": _cmd_kernel,
    "build-code": _cmd_build_code,
    "analyze": _cmd_analyze,
    "count": _cmd_count,
    "search-max": _cmd_search_max,
    "simulate": _cmd_simulate,
}


@functools.cache  # built once per process: parsing leaves a parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cacodes",
        description="Subspace codes from kernels of linear cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="kernel basis of one linear CA")
    p.add_argument("--q", required=True, help="field spec, e.g. 2 or 2^2")
    p.add_argument("--poly", required=True, help="rule polynomial, ascending coefficients")
    p.add_argument("--n", required=True, type=int, help="lattice length")

    p = sub.add_parser("build-code", help="uniform-GCD family and its code")
    p.add_argument("--q", required=True, help="field spec")
    p.add_argument("--k", required=True, type=int, help="rule degree")
    p.add_argument("--gcd", default="1", help="common gcd polynomial (default 1)")

    p = sub.add_parser("analyze", help="parameters and GCD profile of a code file")
    p.add_argument("--code", required=True, help="path to a code JSON file")

    p = sub.add_parser("count", help="irreducible counts and family-size formulas")
    p.add_argument("--q", required=True, help="field spec")
    p.add_argument("--k", required=True, type=int, help="rule degree")
    p.add_argument("--t", type=int, default=None, help="gcd degree for |S|")
    p.add_argument("--csv", action="store_true", help="emit the counts table as CSV")

    p = sub.add_parser("search-max", help="exact maximum family (oracle search)")
    p.add_argument("--q", required=True, help="field spec")
    p.add_argument("--k", required=True, type=int, help="rule degree")
    p.add_argument("--t", required=True, type=int, help="max allowed gcd degree")
    p.add_argument("--budget", type=int, default=512, help="candidate-set size cap")

    p = sub.add_parser("simulate", help="operator-channel decoding statistics")
    p.add_argument("--code", required=True, help="path to a code JSON file")
    p.add_argument("--erasures", type=int, default=0, help="dimensions erased")
    p.add_argument("--errors", type=int, default=0, help="error dimensions injected")
    p.add_argument("--trials", type=int, default=1000, help="number of trials")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--out", default=None, help="also write stats JSON to this path")
    p.add_argument("--csv", action="store_true", help="emit the histogram as CSV")

    return parser


def _csv_lines(args, payload: dict) -> list[str]:
    if args.command == "count":
        lines = ["degree,irreducibles,irreducibles_excluding_x"]
        for degree in sorted(payload["terms"], key=int):
            t = payload["terms"][degree]
            lines.append(f"{degree},{t['gauss']},{t['x_excluded']}")
        return lines
    lines = ["distance,count"]
    for d in sorted(payload["distance_histogram"], key=int):
        lines.append(f"{d},{payload['distance_histogram'][d]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, list):  # what argparse makes of "--name=--"
                raise ParseError(f"--{name} takes one value")
        payload, status = _HANDLERS[args.command](args), 0
    except DomainError as exc:
        payload, status = {"error": {"name": exc.name, "message": str(exc)}}, 1
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        payload, status = {"error": {"name": type(exc).__name__, "message": str(exc)}}, 1
    try:
        if status == 0 and getattr(args, "csv", False):
            print("\n".join(_csv_lines(args, payload)))
        else:
            _emit(payload)
        sys.stdout.flush()  # a stream that fails, fails here and not at exit
    except OSError as exc:
        _silence_stdout()
        print(f"cacodes: cannot write the output: {exc}", file=sys.stderr)
        return 1
    return status


def _silence_stdout() -> None:
    """Point stdout's file descriptor at ``os.devnull``, so that flushing what
    is left in its buffer at exit cannot fail again (a closed pipe, a full
    disk).  A stream with no file descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
