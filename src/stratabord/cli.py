"""Command-line interface: validate / stratify / links / homology / ih /
classify / bordism / glue / catalog with JSON I/O and deterministic reports.

Exit codes: 0 success or positive verdict, 1 negative verdict, 2 usage or
I/O error, 3 internal invariant breach.  All algorithms are deterministic;
`--jobs` is accepted for interface stability but work is sequential, so
results are independent of it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from typing import Any, Dict, Tuple

from . import algebra, bordism, catalog, classes, ih, jsonio
from .classes import SingularityClass
from .errors import (
    InternalInvariantBreach,
    NotValidated,
    StrataError,
    UnknownName,
)
from .strat import (
    FilteredComplex,
    intrinsic_stratification,
    require_pure,
    strata,
    stratum_link,
    trivial_filtration,
    validate_stratified_pseudomanifold,
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read(ref: str) -> str:
    """The text of a UTF-8 file; unreadable and undecodable files are bad input."""
    try:
        with open(ref, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StrataError(f"cannot read {ref}: {exc}")


def _stratification(name: str, k: int) -> Tuple[catalog.CatalogEntry, FilteredComplex]:
    """Catalog entry NAME and its stratification k."""
    entry = catalog.get(name)
    if k < 0 or k >= len(entry.stratifications):
        raise UnknownName(f"{name} has no stratification {k}")
    return entry, entry.stratifications[k]


def _load_space(ref: str) -> Tuple[FilteredComplex, str]:
    """A filtered complex from a JSON file or a catalog:NAME[:k] reference."""
    if ref.startswith("catalog:"):
        _, name, *rest = ref.split(":")
        if len(rest) > 1 or not all(r.removeprefix("-").isdecimal() for r in rest):
            raise StrataError(f"{ref!r} is not catalog:NAME or catalog:NAME:k")
        return _stratification(name, int(rest[0]) if rest else 0)[1], _digest(ref)
    text = _read(ref)
    doc = jsonio.loads(text)
    if doc.get("type") == "complex":
        return trivial_filtration(jsonio.complex_from_json(doc)), _digest(text)
    return jsonio.filtration_from_json(doc), _digest(text)


def _load_certificate(ref: str) -> Tuple[bordism.BordismCertificate, str]:
    text = _read(ref)
    return jsonio.certificate_from_json(jsonio.loads(text)), _digest(text)


def _emit(report: Dict[str, Any], args, lines) -> None:
    if args.json:
        sys.stdout.write(jsonio.dumps(report))
    else:
        for line in lines:
            print(line)


def _maybe_write(args, doc) -> None:
    if args.out:
        jsonio.write_file(args.out, doc)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    FX, digest = _load_space(args.space)
    mode = "with-boundary" if args.with_boundary else "closed"
    rep = validate_stratified_pseudomanifold(FX, mode)
    report = {
        "command": "validate",
        "input": digest,
        "mode": mode,
        "passed": rep.passed,
        "heuristic": rep.heuristic,
        "clauses": [
            {"clause": c.clause, "passed": c.passed, "detail": c.detail}
            for c in rep.clauses
        ],
        "note": rep.note,
    }
    lines = [f"validate ({mode}): {'PASS' if rep.passed else 'FAIL'}"]
    lines += [
        f"  clause ({c.clause}): {'ok' if c.passed else 'FAIL ' + c.detail}"
        for c in rep.clauses
    ]
    _emit(report, args, lines)
    return 0 if rep.passed else 1


def _cmd_stratify(args) -> int:
    FX, digest = _load_space(args.space)
    require_pure(FX)
    FXstar = intrinsic_stratification(FX.complex)
    doc = jsonio.filtration_to_json(FXstar)
    census = [
        {
            "dim": S.dim,
            "regular": S.regular,
            "top_simplices": [list(s) for s in S.top_simplices],
        }
        for S in strata(FXstar)
    ]
    report = {
        "command": "stratify",
        "input": digest,
        "strata": census,
        "filtration": doc,
    }
    lines = [f"intrinsic stratification: {len(census)} strata"]
    lines += [
        f"  dim {c['dim']}{' (regular)' if c['regular'] else ''}: "
        f"{len(c['top_simplices'])} top simplices"
        for c in census
    ]
    _maybe_write(args, doc)
    _emit(report, args, lines)
    return 0


def _cmd_links(args) -> int:
    FX, digest = _load_space(args.space)
    require_pure(FX)
    rows = []
    for S in strata(FX):
        if S.regular and not args.all:
            continue
        LF = stratum_link(FX, S)
        rows.append(
            {
                "stratum_dim": S.dim,
                "regular": S.regular,
                "top_simplex": list(S.top_simplices[0]),
                "link_dim": LF.dim,
                "link_facets": [list(f) for f in sorted(LF.complex.facets)],
            }
        )
    report = {"command": "links", "input": digest, "links": rows}
    lines = [f"links of {len(rows)} strata"]
    for r in rows:
        kind = "empty link" if r["link_dim"] < 0 else f"dim {r['link_dim']}"
        lines.append(
            f"  stratum dim {r['stratum_dim']} at {tuple(r['top_simplex'])}: {kind}, "
            f"{len(r['link_facets'])} facets"
        )
    _emit(report, args, lines)
    return 0


def _homology_table(groups) -> list:
    return [
        {"degree": i, "rank": g.rank, "torsion": list(g.torsion)}
        for i, g in enumerate(groups)
    ]


def _group_text(g, ring) -> str:
    """A group as text, its free part named by the ring it was computed over."""
    parts = [str(ring) if g.rank == 1 else f"{ring}^{g.rank}"] if g.rank else []
    parts += [f"Z/{d}" for d in g.torsion]
    return " + ".join(parts) or "0"


def _cmd_homology(args) -> int:
    FX, digest = _load_space(args.space)
    ring = algebra.parse_ring(args.ring)
    groups = algebra.homology(FX.complex, ring, reduced=args.reduced)
    report = {
        "command": "homology",
        "input": digest,
        "ring": str(ring),
        "reduced": args.reduced,
        "table": _homology_table(groups),
        "euler": FX.complex.euler_characteristic(),
    }
    lines = [f"homology over {ring}" + (" (reduced)" if args.reduced else "")]
    lines += [f"  H_{i} = {_group_text(g, ring)}" for i, g in enumerate(groups)]
    _emit(report, args, lines)
    return 0


_PERVERSITIES = {
    "lower-middle": ih.lower_middle,
    "upper-middle": ih.upper_middle,
    "zero": ih.zero_perversity,
    "top": ih.top_perversity,
}


def _cmd_ih(args) -> int:
    FX, digest = _load_space(args.space)
    ring = algebra.parse_ring(args.ring)
    if args.perversity not in _PERVERSITIES:
        raise StrataError(f"unknown perversity {args.perversity!r}")
    p = _PERVERSITIES[args.perversity](max(FX.dim, 2))
    groups = ih.intersection_homology(FX, p, ring)
    report = {
        "command": "ih",
        "input": digest,
        "ring": str(ring),
        "perversity": args.perversity,
        "table": _homology_table(groups),
    }
    lines = [f"intersection homology ({args.perversity}, {ring})"]
    for i, g in enumerate(groups):
        parts = [f"rank {g.rank}"] + [f"Z/{d}" for d in g.torsion]
        lines.append(f"  I H_{i}: " + ", ".join(parts))
    _emit(report, args, lines)
    return 0


_CLASS_ALIASES = {
    "loc-orient": "locally_orientable",
    "loc-orient-witt": "locally_orientable_witt",
    "s-duality": "s_duality",
    "lsf-partial": "lsf_partial",
    "all": "all_pseudomanifolds",
    "all-suspensions": "all_suspensions",
}


def parse_class_spec(spec: str) -> Tuple[SingularityClass, bool]:
    """A class spec [siegel:]NAME[:FIELD], like witt:Q, ip, euler2, loc-orient
    or siegel:witt:Q."""
    parts = spec.split(":")
    siegel_mode = parts[0] == "siegel"
    if siegel_mode:
        parts = parts[1:]
        if not parts:
            raise UnknownName("siegel: needs an inner class")
    if not parts[0] or len(parts) > 2:
        raise UnknownName(f"class spec {spec!r} is not [siegel:]NAME[:FIELD]")
    name = _CLASS_ALIASES.get(parts[0], parts[0])
    field = algebra.parse_ring(parts[1]) if len(parts) > 1 else None
    return classes.builtin(name, field), siegel_mode


def _verdict_dict(v) -> Dict[str, Any]:
    return {
        "member": v.verdict,
        "heuristic": v.heuristic,
        "detail": v.detail,
        "witness": v.witness,
    }


def _cmd_classify(args) -> int:
    FX, digest = _load_space(args.space)
    E, siegel_mode = parse_class_spec(args.klass)
    verdicts: Dict[str, Any] = {}
    if siegel_mode:
        v = classes.siegel_membership(FX.complex, E)
        verdicts["siegel"] = _verdict_dict(v)
        final = v
    else:
        routes = (
            ("stratified", "polyhedral") if args.via == "both" else (args.via,)
        )
        results = {}
        for route in routes:
            if route == "stratified":
                results[route] = classes.links_in_class(FX, E)
            else:
                results[route] = classes.f_membership(FX.complex, E, "polyhedral")
            verdicts[route] = _verdict_dict(results[route])
        if len(results) == 2:
            a, b = results["stratified"], results["polyhedral"]
            if a.verdict != b.verdict:
                raise InternalInvariantBreach(
                    f"routes disagree on {E.name}: stratified={a.verdict} "
                    f"polyhedral={b.verdict}"
                )
        final = next(iter(results.values()))
    report = {
        "command": "classify",
        "input": digest,
        "class": E.name,
        "via": "siegel" if siegel_mode else args.via,
        "member": final.verdict,
        "heuristic": final.heuristic,
        "verdicts": verdicts,
    }
    if not args.witness:
        for v in report["verdicts"].values():
            v.pop("witness", None)
    lines = [
        f"classify {E.name}: {'member' if final.verdict else 'NON-MEMBER'}"
        + (" (heuristic)" if final.heuristic else "")
    ]
    if final.detail:
        lines.append(f"  {final.detail}")
    if args.witness and final.witness:
        lines.append(f"  witness: {final.witness}")
    _emit(report, args, lines)
    return 0 if final.verdict else 1


def _cert_report(cert, args, command: str) -> Tuple[Dict[str, Any], list]:
    rep = bordism.verify_certificate(cert)
    if not rep.passed:
        raise InternalInvariantBreach(
            f"constructed certificate fails verification: {rep.checks}"
        )
    report = {
        "command": command,
        "provenance": cert.provenance,
        "carrier_dim": cert.Y.dim,
        "pieces": [
            {"label": p.label, "sign": p.sign, "dim": p.space.dim}
            for p in cert.pieces
        ],
        "checks": rep.checks,
        "passed": rep.passed,
    }
    lines = [f"{command}: certificate verified ({cert.provenance})"]
    lines += [
        f"  piece {p.label}: sign {'+' if p.sign > 0 else '-'}1, dim {p.space.dim}"
        for p in cert.pieces
    ]
    return report, lines


def _require_valid(FX: FilteredComplex, ref: str, mode: str = "closed") -> None:
    """A bordism source that fails validation in `mode` is bad input."""
    rep = validate_stratified_pseudomanifold(FX, mode)
    if not rep.passed:
        raise NotValidated(f"{ref} fails clauses {rep.failing()}")


def _cmd_bordism(args) -> int:
    if args.other is not None and args.mode != "between":
        raise StrataError(f"bordism {args.mode} takes one input")
    if args.mode == "verify":
        if args.out is not None:
            raise StrataError("bordism verify writes no file")
        cert, digest = _load_certificate(args.space)
        rep = bordism.verify_certificate(cert)
        report = {
            "command": "bordism verify",
            "input": digest,
            "passed": rep.passed,
            "checks": rep.checks,
            "heuristic": rep.heuristic,
        }
        lines = [f"bordism verify: {'PASS' if rep.passed else 'FAIL'}"]
        lines += [
            f"  {name}: {'ok' if ok else 'FAIL'}" for name, ok in rep.checks.items()
        ]
        _emit(report, args, lines)
        return 0 if rep.passed else 1
    FX, _d = _load_space(args.space)
    if args.mode == "to-intrinsic":
        _require_valid(FX, args.space)
        cert = bordism.bordism_to_intrinsic(FX)
    elif args.mode == "cylinder":
        # Validated on the boundary the cylinder is built on.
        require_pure(FX)
        FXB = dataclasses.replace(FX, boundary=bordism.designated_boundary(FX))
        _require_valid(FXB, args.space, "with-boundary")
        cert = bordism.cylinder(FX)
    else:  # between
        if not args.other:
            raise StrataError("bordism between needs a second space")
        FX2, _d2 = _load_space(args.other)
        _require_valid(FX, args.space)
        _require_valid(FX2, args.other)
        cert = bordism.bordism_between_stratifications(FX, FX2)
    report, lines = _cert_report(cert, args, f"bordism {args.mode}")
    _maybe_write(args, jsonio.certificate_to_json(cert))
    _emit(report, args, lines)
    return 0


def _cmd_glue(args) -> int:
    c1, _d1 = _load_certificate(args.cert1)
    c2, _d2 = _load_certificate(args.cert2)
    labels = tuple(args.along.split(","))
    if len(labels) != 2:
        raise StrataError("--along needs two comma-separated piece labels")
    for cert, ref in ((c1, args.cert1), (c2, args.cert2)):
        # A certificate that fails verification is bad input.
        checks = bordism.verify_certificate(cert).checks
        failing = [name for name, ok in checks.items() if not ok]
        if failing:
            raise NotValidated(f"{ref} fails checks {failing}")
    cert = bordism.glue(c1, c2, labels)
    report, lines = _cert_report(cert, args, "glue")
    _maybe_write(args, jsonio.certificate_to_json(cert))
    _emit(report, args, lines)
    return 0


def _cmd_catalog(args) -> int:
    if args.mode == "list":
        if args.name is not None or args.out is not None:
            raise StrataError("catalog list takes no name and writes no file")
        report = {"command": "catalog list", "names": list(catalog.names())}
        _emit(report, args, list(catalog.names()))
        return 0
    if not args.name:
        raise StrataError("catalog emit needs a name")
    k = args.stratification
    entry, FX = _stratification(args.name, k)
    doc = jsonio.filtration_to_json(FX)
    report = {
        "command": "catalog emit",
        "name": entry.name,
        "stratification": k,
        "euler": entry.euler,
        "orientable": entry.orientable,
        "homology": [
            {"degree": i, "rank": r, "torsion": list(t)}
            for i, (r, t) in enumerate(entry.homology)
        ],
        "filtration": doc,
    }
    _maybe_write(args, doc)
    if not args.out and not args.json:
        sys.stdout.write(jsonio.dumps(doc))
    else:
        _emit(report, args, [f"{entry.name}: {entry.description}"])
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--jobs", type=int, default=1, help="worker count (results independent of N)"
    )
    writes = argparse.ArgumentParser(add_help=False, parents=[common])
    writes.add_argument("--out", help="write the primary JSON artifact to this file")

    top = argparse.ArgumentParser(
        prog="stratabord",
        description="Stratified PL pseudomanifolds: validation, intersection "
        "homology, singularity classes, bordisms.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common])
    p.add_argument("space")
    p.add_argument("--with-boundary", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stratify", parents=[writes])
    p.add_argument("space")
    p.set_defaults(func=_cmd_stratify)

    p = sub.add_parser("links", parents=[common])
    p.add_argument("space")
    p.add_argument("--all", action="store_true", help="include regular strata")
    p.set_defaults(func=_cmd_links)

    p = sub.add_parser("homology", parents=[common])
    p.add_argument("space")
    p.add_argument("--ring", default="Z")
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("ih", parents=[common])
    p.add_argument("space")
    p.add_argument("--ring", default="Z")
    p.add_argument("--perversity", default="lower-middle")
    p.set_defaults(func=_cmd_ih)

    p = sub.add_parser("classify", parents=[common])
    p.add_argument("space")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument(
        "--via", choices=("stratified", "polyhedral", "both"), default="stratified"
    )
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bordism", parents=[writes])
    p.add_argument(
        "mode", choices=("to-intrinsic", "between", "cylinder", "verify")
    )
    p.add_argument("space")
    p.add_argument("other", nargs="?")
    p.set_defaults(func=_cmd_bordism)

    p = sub.add_parser("glue", parents=[writes])
    p.add_argument("cert1")
    p.add_argument("cert2")
    p.add_argument("--along", required=True)
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("catalog", parents=[writes])
    p.add_argument("mode", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.add_argument("--stratification", type=int, default=0)
    p.set_defaults(func=_cmd_catalog)

    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.jobs < 1:
            raise StrataError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except (InternalInvariantBreach, AssertionError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except StrataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
