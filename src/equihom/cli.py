"""Command-line front end.

Subcommands: build, homology, equivariant, formula, verify-table,
verify-conjecture, cross-check, dump.  Exit codes: 0 success, 1 verification
mismatch, 2 usage error, 3 internal error (a failed invariant check, or
memory ran out).
Output is deterministic: fixed orderings, no timestamps, and --threads never
changes results (execution is sequential).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import characters
from .complexes import (
    KINDS,
    load_complex,
    matching_complex,
    pcycle_complex,
    quillen_complex,
)
from .formulas import (
    column_added_plethysm,
    conjectured_top_character,
    cycle_complex_character,
    euler_poincare_character,
    graph_matching_homology,
    inflation_block,
    matching_boundary_entry,
    odd_parts_top_character,
    sylow_character_tableau_form,
    sylow_permutation_character,
    vanishing_floor,
    verify_table,
)
from .homology import (
    betti,
    boundary_matrix,
    chain_character,
    equivariant_decomposition,
)
from .symfunc import (
    SymmetricFunction,
    add_column,
    from_e,
    from_h,
    plethysm,
    restrict_length,
)


COMPLEX_CACHE_VERSION = 2


def write_atomic(path: str, data: bytes):
    """Write a file so that a reader sees either its old or its new content,
    never a partial one: write a temporary file in the same directory, then
    rename it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _digest_line(payload: bytes) -> bytes:
    """First line of a complex cache entry whose remainder is `payload`."""
    # imported here: hashlib loads OpenSSL (about 3.6 MB of RSS), which only
    # runs that use a cache directory need
    import hashlib

    return b"sha256 " + hashlib.sha256(payload).hexdigest().encode()


def _read_cached_complex(path: str, kind: str, p: int, n: int):
    """The complex in a cache entry, or None when the entry is missing or its
    payload does not match the sha256 in its first line."""
    try:
        with open(path, "rb") as fh:
            header, _, payload = fh.read().partition(b"\n")
    except OSError:
        return None
    if header != _digest_line(payload):
        return None
    try:
        return load_complex(kind, p, n, payload.decode("utf-8"))
    except (ValueError, KeyError, TypeError):
        return None


def _build_complex(args):
    """Build the complex that args names, going through the facet-list disk
    cache when args.cache_dir is set.  An entry is a `sha256 <hex>` line
    followed by the complex's to_text(); a corrupt or truncated entry is
    rebuilt."""
    kind, p, n = args.complex, args.p, args.n
    path = None
    if args.cache_dir:
        path = os.path.join(
            args.cache_dir, f"{kind}_p{p}_n{n}_v{COMPLEX_CACHE_VERSION}.complex"
        )
        cx = _read_cached_complex(path, kind, p, n)
        if cx is not None:
            return cx
    spec = KINDS[kind]
    # looked up at call time, so that a wrapped builder is the one called
    build = globals()[spec.builder]
    cx = build(p, n, allow_large=args.allow_large) if spec.size_guarded else build(p, n)
    if path:
        payload = cx.to_text().encode("utf-8")
        try:
            write_atomic(path, _digest_line(payload) + b"\n" + payload)
        except OSError:
            pass
    return cx


def _emit_symfunc(f: SymmetricFunction, fmt: str, out):
    if fmt == "json":
        print(json.dumps(f.to_json()), file=out)
    else:
        print(f.to_text(), file=out)


def _cmd_build(args, out):
    cx = _build_complex(args)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "complex": cx.name,
                    "dim": cx.dim,
                    "f_vector": list(cx.f_vector()),
                }
            ),
            file=out,
        )
    else:
        print(f"{cx.name}: dim {cx.dim}, f-vector {cx.f_vector()}", file=out)
    return 0


def _cmd_dump(args, out):
    cx = _build_complex(args)
    if args.boundary is not None:
        if not 0 <= args.boundary <= cx.dim:
            raise ValueError(
                f"boundary degree {args.boundary} out of range 0..{cx.dim}"
            )
        out.write(boundary_matrix(cx, args.boundary).to_coordinate_text())
        return 0
    out.write(cx.to_text())
    return 0


def _cmd_homology(args, out):
    cx = _build_complex(args)
    numbers = betti(cx)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "complex": cx.name,
                    "betti": [
                        {"i": i - 1, "betti": b} for i, b in enumerate(numbers)
                    ],
                }
            ),
            file=out,
        )
    else:
        for i, b in enumerate(numbers):
            print(f"b~_{i - 1} = {b}", file=out)
    return 0


def _cmd_equivariant(args, out):
    cx = _build_complex(args)
    if args.degree is not None and not -1 <= args.degree <= cx.dim:
        raise ValueError(f"degree {args.degree} out of range -1..{cx.dim}")
    decomp = equivariant_decomposition(cx)
    data = decomp.to_json()
    if args.degree is not None:
        data["degrees"] = [d for d in data["degrees"] if d["i"] == args.degree]
    if args.format == "json":
        print(json.dumps(data), file=out)
    else:
        for row in data["degrees"]:
            terms = " + ".join(
                (f"{t['mult']}*" if t["mult"] != 1 else "")
                + "S[" + ",".join(str(x) for x in t["partition"]) + "]"
                for t in row["specht"]
            )
            print(f"H~_{row['i']}: betti {row['betti']}  {terms or '0'}", file=out)
    return 0


_FORMULA_NEEDS_N = {"graph-matching", "euler-poincare", "chain", "vanishing-floor"}


def _cmd_formula(args, out):
    name = args.name
    if name in _FORMULA_NEEDS_N and args.n is None:
        raise ValueError(f"formula {name!r} needs --n")
    if name == "fp":
        f = sylow_permutation_character(args.p)
    elif name == "fp-tableau":
        f = sylow_character_tableau_form(args.p)
    elif name == "inflation-block":
        f = inflation_block(args.k, args.p)
    elif name == "top-prediction":
        f = conjectured_top_character(args.k, args.p)
    elif name == "column-prediction":
        f = column_added_plethysm(args.k, args.p)
    elif name == "graph-matching":
        f = graph_matching_homology(args.n, args.r)
    elif name == "odd-parts":
        f = odd_parts_top_character(args.k)
    elif name == "euler-poincare":
        f = euler_poincare_character(args.p, args.n)
    elif name == "chain":
        f = chain_character(args.p, args.n, args.r)
    elif name == "vanishing-floor":
        print(vanishing_floor(args.p, args.n), file=out)
        return 0
    else:
        raise ValueError(f"unknown formula {name!r}")
    _emit_symfunc(f, args.format, out)
    return 0


def _cmd_verify_table(args, out):
    results = verify_table()
    ok = 0
    for r in results:
        status = "ok" if r["match"] else "MISMATCH"
        print(f"n={r['n']} r={r['degree']}: {status}", file=out)
        if not r["match"]:
            print(f"  derived:  {r['derived'].to_text()}", file=out)
            print(f"  expected: {r['expected'].to_text()}", file=out)
        else:
            ok += 1
    print(f"{ok}/{len(results)} rows match", file=out)
    return 0 if ok == len(results) else 1


def _cmd_verify_conjecture(args, out):
    k, p = args.k, args.p
    n = k * p + 1
    cx = matching_complex(p, n)
    decomp = equivariant_decomposition(cx)
    top = cx.dim
    direct = decomp.characteristic(top)
    predicted = conjectured_top_character(k, p)
    diff = direct - predicted
    if diff.is_zero():
        print(f"p={p} k={k} (n={n}): top homology equals the prediction", file=out)
        return 0
    print(f"p={p} k={k} (n={n}): difference {diff.to_text()}", file=out)
    long_part = sum(1 for lam in diff.terms if len(lam) >= k + 1)
    if long_part == 0 and diff.is_schur_nonnegative():
        print("difference has no Schur terms with k+1 or more parts", file=out)
        return 0
    print("difference has unexpected Schur terms with k+1 or more parts", file=out)
    return 1


def _cmd_cross_check(args, out):
    failures = 0

    def check(label, ok):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {label}", file=out)
        if not ok:
            failures += 1

    for p in (2, 3, 5, 7):
        brute = characters.frobenius_ch(characters.normalizer_character(p))
        check(
            f"sylow character p={p}: cycle index vs brute force vs tableaux",
            brute == sylow_permutation_character(p)
            == sylow_character_tableau_form(p),
        )
    for r in range(1, 5):
        for p in range(2, 5):
            lhs = restrict_length(plethysm(from_e(r), from_h(p)), r)
            rhs = add_column(plethysm(from_h(r), from_h(p - 1)), r)
            check(f"restriction identity r={r} p={p}", lhs == rhs)
    top_n = 7 if args.quick else 9
    for n in range(4, top_n + 1):
        q = quillen_complex(3, n)
        m = matching_complex(3, n)
        dq = equivariant_decomposition(q)
        dm = equivariant_decomposition(m)
        check(
            f"quillen vs matching top degree, n={n}",
            q.dim == m.dim and dq.multiplicities(q.dim) == dm.multiplicities(m.dim),
        )
    for n in (5, 6, 7):
        c = pcycle_complex(5, n)
        direct = equivariant_decomposition(c).characteristic(0)
        d_table = {}
        for k in range(n // 5 + 1):
            m = n - 5 * k
            if m < 5:
                d_table[m] = matching_boundary_entry(m, 5, 0)
            else:
                mm = matching_complex(5, m)
                d_table[m] = equivariant_decomposition(mm).characteristic(mm.dim)
        assembled = cycle_complex_character(n, 5, 0, d_table)
        check(f"cycle-complex assembly vs direct, n={n}", assembled == direct)
    print(
        ("all cross-checks passed" if not failures else f"{failures} failures"),
        file=out,
    )
    return 0 if failures == 0 else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equihom",
        description="Exact equivariant homology of matching, p-cycle and "
        "Quillen complexes of symmetric groups.",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; results never depend on it")
    parser.add_argument("--cache-dir", default=os.environ.get("EQUIHOM_CACHE_DIR"),
                        help="directory for the disk cache of built complexes"
                        " (each entry sha256-checked, rebuilt when corrupt)")
    sub = parser.add_subparsers(dest="command", required=True)

    def complex_args(sp):
        sp.add_argument("--complex", required=True, choices=list(KINDS))
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--allow-large", action="store_true")
        sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("build", help="build a complex and print its shape")
    complex_args(sp)
    sp = sub.add_parser("dump", help="dump a complex in facet-list text form")
    complex_args(sp)
    sp.add_argument("--boundary", type=int, default=None, metavar="I",
                    help="dump the degree-I boundary matrix as 'row col value'"
                    " triples instead")
    sp = sub.add_parser("homology", help="reduced Betti numbers")
    complex_args(sp)
    sp = sub.add_parser("equivariant", help="Specht decomposition per degree")
    complex_args(sp)
    sp.add_argument("--degree", type=int, default=None)

    sp = sub.add_parser("formula", help="evaluate a closed-form pipeline")
    sp.add_argument(
        "name",
        choices=[
            "fp",
            "fp-tableau",
            "inflation-block",
            "top-prediction",
            "column-prediction",
            "graph-matching",
            "odd-parts",
            "euler-poincare",
            "chain",
            "vanishing-floor",
        ],
    )
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("verify-table",
                        help="derive the n<=13 homology table and diff it")
    sp = sub.add_parser("verify-conjecture",
                        help="compare direct top homology to the prediction")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp = sub.add_parser("cross-check", help="run the oracle suites")
    sp.add_argument("--quick", action="store_true")
    return parser


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be positive")
    if args.cache_dir:
        os.makedirs(args.cache_dir, exist_ok=True)
    handlers = {
        "build": _cmd_build,
        "dump": _cmd_dump,
        "homology": _cmd_homology,
        "equivariant": _cmd_equivariant,
        "formula": _cmd_formula,
        "verify-table": _cmd_verify_table,
        "verify-conjecture": _cmd_verify_conjecture,
        "cross-check": _cmd_cross_check,
    }
    try:
        return handlers[args.command](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, KeyError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
