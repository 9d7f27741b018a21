"""Command line interface.

Subcommands: analyze, compound, signsym, frobenius, wsets, classify, gen,
verify-corpus.  Matrix files are CSV (rows of comma-separated decimals, no
header) or JSON ({"n": ..., "rows": [[...]]}); the format is inferred from
the extension unless --format says otherwise.  Exit codes: 0 success, 1
input or usage error, 2 verification failure.

Every JSON report (stdout, the counterexample bundle on stderr, and the
JSON matrix that `compound` and `gen` write) is indented by two spaces
with non-ASCII characters escaped: byte for byte the text that
`json.dumps` writes with indent=2.

The environment variable SIGNSPECTRA_THREADS, when set, pins the BLAS
thread pools before numpy is first imported; for that reason the heavy
imports happen inside the command handlers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

__all__ = ["main", "run"]

# Deep nesting exhausts the JSON decoder's stack: that input is invalid JSON too.
_JSON_ERRORS = (json.JSONDecodeError, RecursionError)
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _configure_threads() -> None:
    want = os.environ.get("SIGNSPECTRA_THREADS")
    if not want:
        return
    if not want.isdigit() or int(want) < 1:
        raise ValueError(f"SIGNSPECTRA_THREADS must be a positive integer, got {want!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, want)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _infer_format(path: str, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    return "json" if path.lower().endswith(".json") else "csv"


def parse_matrix_text(text: str, fmt: str):
    """Parse CSV or JSON matrix content into a validated square array."""
    from .core import as_matrix

    if fmt == "json":
        try:
            data = json.loads(text)
        except _JSON_ERRORS as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "n" not in data or "rows" not in data:
            raise ValueError('JSON matrix must be an object with "n" and "rows"')
        rows = data["rows"]
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f'"n" must be an integer, got {n!r}')
        if not isinstance(rows, list) or len(rows) != n:
            raise ValueError(f'"rows" must list exactly n={n} rows')
        for r, row in enumerate(rows, start=1):
            if not isinstance(row, list) or len(row) != n:
                raise ValueError(f"row {r} must list exactly {n} numbers")
            for v in row:
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise ValueError(f"row {r} holds a non-numeric entry {v!r}")
        return as_matrix(rows)

    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        entries = []
        for field in stripped.split(","):
            try:
                entries.append(float(field))
            except ValueError as exc:
                raise ValueError(
                    f"row {lineno}: could not parse entry {field.strip()!r}"
                ) from exc
        rows.append((lineno, entries))
    if not rows:
        raise ValueError("matrix file holds no rows")
    width = len(rows[0][1])
    for lineno, entries in rows:
        if len(entries) != width:
            raise ValueError(
                f"row {lineno} has {len(entries)} entries, expected {width}"
            )
    if len(rows) != width:
        raise ValueError(
            f"matrix must be square, got {len(rows)} rows of width {width}"
        )
    return as_matrix([entries for _, entries in rows])


def read_matrix(path: str, fmt: str):
    fmt = _infer_format(path, fmt)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text, fmt), fmt


# `json.dumps` with an indent runs the pure-Python encoder on CPython 3.10
# and 3.11, whose C encoder cannot indent.  _dumps writes the same text in
# one pass and one join.  Every scalar, and every list of numbers, booleans
# and nulls, goes to the C encoder in one call; such a list is then broken
# onto indented lines at its ", " separators (no number, boolean or null
# contains ", ").  That is done once per list object and indentation, so a
# W listing pays once for each J and Jt list it repeats.  Keyed by id, not
# content: [1], [1.0] and [True] are equal but print differently.
_encode_str = json.encoder.encode_basestring_ascii
_encode_flat = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, _encode_str, None, ": ", ", ", False, False, True
)
_FLAT_TYPES = frozenset({int, float, bool, type(None)})


def _dumps(obj) -> str:
    """The text of `json.dumps` with indent=2, byte for byte, for a tree of
    dicts with str keys, lists, tuples and JSON scalars.  A key of any other
    type raises TypeError."""
    parts: list[str] = []
    flat_text: dict[tuple[int, int], str] = {}  # the tree keeps each id valid

    def emit(obj, pad: str) -> None:  # pad: what precedes the closing bracket
        if isinstance(obj, str):
            return parts.append(_encode_str(obj))
        if not obj or not isinstance(obj, (list, tuple, dict)):
            return parts.extend(_encode_flat(obj, 0))  # a scalar, [] or {}
        inner = pad + "  "
        if isinstance(obj, dict):
            for i, (key, value) in enumerate(obj.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                parts.append(("," if i else "{") + inner + _encode_str(key) + ": ")
                emit(value, inner)
            return parts.append(pad + "}")
        key = (id(obj), len(pad))
        if key in flat_text or _FLAT_TYPES.issuperset(map(type, obj)):
            if key not in flat_text:
                body = "".join(_encode_flat(obj, 0))[1:-1].replace(", ", "," + inner)
                flat_text[key] = "[" + inner + body + pad + "]"
            return parts.append(flat_text[key])
        for i, value in enumerate(obj):
            parts.append(("," if i else "[") + inner)
            emit(value, inner)
        parts.append(pad + "]")

    emit(obj, "\n")
    return "".join(parts)


def _json_entry(v: float):
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return int(f)
    return f


def format_matrix_csv(m) -> str:
    return "\n".join(",".join(str(_json_entry(v)) for v in row) for row in m) + "\n"


def format_matrix_json(m) -> str:
    payload = {
        "n": int(m.shape[0]),
        "rows": [[_json_entry(v) for v in row] for row in m],
    }
    return _dumps(payload) + "\n"


def _emit_matrix(m, fmt: str, out_path: str | None) -> None:
    text = format_matrix_json(m) if fmt == "json" else format_matrix_csv(m)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj) -> None:
    sys.stdout.write(_dumps(obj) + "\n")


def _complex_list(values) -> list[dict]:
    return [{"re": float(z.real), "im": float(z.imag)} for z in values]


def _spectral_report(c) -> dict:
    return {
        "eigenvalues": _complex_list(c.spectrum.values),
        "rho": float(c.spectrum.rho),
        "peripheral": {
            "k": c.peripheral.count,
            "roots_of": c.peripheral.roots_of,  # (int, float) or None
        },
        "theorem": c.theorem,
        "predictions": [
            {"claim": p.claim, "verified": p.verified} for p in c.predictions
        ],
        "diagnostics": c.diagnostics,
    }


def _signsym_section(graph) -> dict:
    """Certificate report from a sign-constraint graph: the canonical J is
    the colour-1 side of every component, and d is -1 exactly on J."""
    if not graph.consistent:
        return {"sign_symmetric": False, "odd_cycle": list(graph.odd_cycle)}
    return {
        "sign_symmetric": True,
        "j_set": [i + 1 for i, c in enumerate(graph.coloring) if c == 1],
        "d": [-1 if c == 1 else 1 for c in graph.coloring],
        "constraint_components": len(graph.components),
        "certificate_count": 2 ** len(graph.components),
    }


def _frobenius_blocks(form) -> list[dict]:
    return [
        {"indices": list(idx), "rho": float(r)}
        for idx, r in zip(form.block_indices, form.rho_per_block)
    ]


def _candidate_fields(cand) -> dict:
    """The transitivity fields of one W candidate, as `wsets` and `analyze`
    report them."""
    return {
        "transitive": cand.transitive,
        "witness": None if cand.witness is None else list(cand.witness),
        "order": None if cand.order is None else list(cand.order.images),
    }


def cmd_compound(args) -> int:
    from .exterior import compound2

    m, fmt = read_matrix(args.path, args.format)
    _emit_matrix(compound2(m), fmt, args.out)
    return 0


def cmd_signsym(args) -> int:
    from .signsym import sign_constraint_graph

    m, _ = read_matrix(args.path, args.format)
    _emit_json(_signsym_section(sign_constraint_graph(m)))
    return 0


def cmd_frobenius(args) -> int:
    from .digraph import frobenius_form

    m, _ = read_matrix(args.path, args.format)
    form = frobenius_form(m)
    _emit_json(
        {
            "perm": list(form.perm.images),
            "rho": float(form.rho),
            "blocks": _frobenius_blocks(form),
        }
    )
    return 0


def cmd_wsets(args) -> int:
    from .wsets import _check_cap, enumerate_w_candidates

    _check_cap(args.cap)  # before the matrix is read
    m, _ = read_matrix(args.path, args.format)
    enum = enumerate_w_candidates(m, cap=args.cap)
    as_list = functools.cache(sorted)  # one list per distinct J or Jt set
    entries = []
    for cand in enum.candidates:
        fields = _candidate_fields(cand)
        for j, jt in cand.generating_pairs:
            entries.append({"j": as_list(j), "jt": as_list(jt), **fields})
    _emit_json(
        {
            "exists_transitive": any(c.transitive for c in enum.candidates),
            "j_count": enum.j_count,
            "jt_count": enum.jt_count,
            "unique_w_sets": enum.count,
            "candidates": entries,
        }
    )
    return 0


def cmd_classify(args) -> int:
    from .spectral import classify, counterexample_bundle

    m, _ = read_matrix(args.path, args.format)
    c = classify(m, rel_tol=args.rel_tol, peripheral_tol=args.peripheral_tol)
    _emit_json(_spectral_report(c))
    if not c.verified:
        sys.stderr.write(_dumps(counterexample_bundle(m, c)) + "\n")
        return 2
    return 0


def cmd_analyze(args) -> int:
    from .signsym import TooManyCertificatesError
    from .spectral import Facts, classify, counterexample_bundle
    from .wsets import _check_cap, w_candidates_from_graphs

    _check_cap(args.cap)  # also on routes that list no candidates
    m, fmt = read_matrix(args.path, args.format)
    facts = Facts(m)
    graph_c = facts.graph_c

    sign_matrix = _signsym_section(facts.graph_a)
    sign_compound = None if graph_c is None else _signsym_section(graph_c)

    form = facts.frobenius
    frob = {
        "perm": list(form.perm.images),
        "rho": float(form.rho),
        "block_count": len(form.block_sizes),
        "blocks": _frobenius_blocks(form),
    }
    if sign_matrix["sign_symmetric"]:
        sign_matrix["matches_two_power_blocks"] = (
            sign_matrix["certificate_count"] == 2 ** len(form.block_sizes)
        )

    imprim = None
    if facts.imprimitivity is not None:
        imprim = {
            "h": facts.imprimitivity.h,
            "cyclic_classes": [list(c) for c in facts.imprimitivity.cyclic_classes],
        }

    w_section = None
    if facts.graph_a.consistent and (graph_c is None or graph_c.consistent):
        try:
            enum = w_candidates_from_graphs(facts.graph_a, graph_c, args.cap, limit=64)
        except TooManyCertificatesError as exc:
            w_section = {"error": str(exc)}
        else:
            as_list = functools.cache(sorted)  # one list per distinct J or Jt set
            listed = [
                {
                    **_candidate_fields(cand),
                    "generating_pairs": [
                        {"j": as_list(j), "jt": as_list(jt)}
                        for j, jt in cand.generating_pairs
                    ],
                }
                for cand in enum.candidates
            ]
            w_section = {
                "exists_transitive": facts.exists_transitive,
                "j_count": enum.j_count,
                "jt_count": enum.jt_count,
                "unique_w_sets": enum.count,
                "truncated": enum.count > 64,
                "candidates": listed,
            }

    c = classify(facts, rel_tol=args.rel_tol, peripheral_tol=args.peripheral_tol)

    classification = _spectral_report(c)
    classification["peripheral"]["values"] = _complex_list(c.peripheral.values)
    classification["verified"] = c.verified
    classification["facts"] = c.routing_facts()

    report = {
        "input": {"path": args.path, "format": fmt, "n": facts.n},
        "tolerances": {
            "rel_tol": args.rel_tol,
            "peripheral_tol": args.peripheral_tol,
            "candidate_cap": args.cap,
        },
        "sign_symmetry": {"matrix": sign_matrix, "compound": sign_compound},
        "frobenius": frob,
        "imprimitivity": imprim,
        "w_candidates": w_section,
        "classification": classification,
        "verified": c.verified,
    }
    _emit_json(report)
    if not c.verified:
        sys.stderr.write(_dumps(counterexample_bundle(m, c)) + "\n")
        return 2
    return 0


def cmd_gen(args) -> int:
    from .gen import GenSpec, generate

    text = args.spec
    try:
        data = json.loads(text)
    except _JSON_ERRORS:
        try:
            with open(text, "r", encoding="utf-8-sig") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(
                f"spec is neither inline JSON nor a readable file: {text!r}"
            ) from exc
        except _JSON_ERRORS as exc:
            raise ValueError(f"invalid JSON in spec file {text}: {exc}") from exc
    matrix = generate(GenSpec.from_dict(data))
    _emit_matrix(matrix, _infer_format(args.out or "", args.format), args.out)
    return 0


def cmd_verify_corpus(args) -> int:
    from .exterior import verify_eigenvalue_products
    from .gen import GenSpec, generate
    from .spectral import Facts, _check_tolerances, classify, counterexample_bundle

    _check_tolerances(args.rel_tol, args.peripheral_tol)  # before any spec
    try:
        with open(args.manifest, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {args.manifest}: {exc}") from exc
    except _JSON_ERRORS as exc:
        raise ValueError(f"invalid JSON in {args.manifest}: {exc}") from exc
    specs = data.get("specs") if isinstance(data, dict) else data
    if not isinstance(specs, list) or not specs:
        raise ValueError("manifest must be a list of generator specs")

    results = []
    failures = []
    for index, entry in enumerate(specs):
        try:
            spec = GenSpec.from_dict(entry)
            matrix = generate(spec)
            facts = Facts(matrix)
            c = classify(
                facts, rel_tol=args.rel_tol, peripheral_tol=args.peripheral_tol
            )
            products = verify_eigenvalue_products(facts)
        except ValueError as exc:
            raise ValueError(f"spec {index}: {exc}") from exc
        ok = c.verified and products.ok
        results.append(
            {
                "index": index,
                "spec": spec.to_dict(),
                "theorem": c.theorem,
                "classification_verified": c.verified,
                "eigenvalue_products_ok": products.ok,
                "ok": ok,
            }
        )
        if not ok:
            bundle = counterexample_bundle(matrix, c)
            bundle["index"] = index
            bundle["eigenvalue_products_ok"] = products.ok
            failures.append(bundle)
    _emit_json({"results": results, "failures": failures})
    return 2 if failures else 0


@functools.cache
def build_parser() -> _Parser:
    from .spectral import DEFAULT_PERIPHERAL_TOL, DEFAULT_REL_TOL
    from .wsets import DEFAULT_CANDIDATE_CAP

    parser = _Parser(prog="signspectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tolerances(p):
        p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
        p.add_argument("--peripheral-tol", type=float, default=DEFAULT_PERIPHERAL_TOL)

    def add_matrix_command(name, func, help_text, tolerances=False, cap=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="matrix file (CSV or JSON)")
        p.add_argument(
            "--format", choices=("auto", "csv", "json"), default="auto",
            help="input format (default: by extension)",
        )
        if name == "compound":
            p.add_argument("--out", default=None, help="write output here instead of stdout")
        if tolerances:
            add_tolerances(p)
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP,
                           help="most (J, Jt) combinations to list (default: %(default)s)")
        p.set_defaults(func=func)
        return p

    add_matrix_command("analyze", cmd_analyze,
                       "full structural and spectral report", tolerances=True, cap=True)
    add_matrix_command("compound", cmd_compound, "second compound matrix")
    add_matrix_command("signsym", cmd_signsym, "sign-symmetry certificate")
    add_matrix_command("frobenius", cmd_frobenius, "block triangular normal form")
    add_matrix_command("wsets", cmd_wsets, "candidate W sets and transitivity",
                       cap=True)
    add_matrix_command("classify", cmd_classify,
                       "peripheral spectrum classification", tolerances=True)

    p_gen = sub.add_parser("gen", help="generate a matrix from a JSON spec")
    p_gen.add_argument("spec", help="inline JSON or a path to a JSON file")
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--format", choices=("auto", "csv", "json"), default="auto")
    p_gen.set_defaults(func=cmd_gen)

    p_corpus = sub.add_parser(
        "verify-corpus", help="generate and verify a manifest of specs"
    )
    p_corpus.add_argument("manifest", help="JSON list of generator specs")
    add_tolerances(p_corpus)
    p_corpus.set_defaults(func=cmd_verify_corpus)
    return parser


def main(argv=None) -> int:
    try:
        _configure_threads()
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> None:
    raise SystemExit(main())
