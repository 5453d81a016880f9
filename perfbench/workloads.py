"""The three workloads: set-up, timed jobs and their output checks.

Each workload is a `setup(seed)` that builds the seeded inputs and a
`jobs(inputs, rnd)` that runs the timed operations through `Round.job`.
A job times only the call into the program; its check runs afterwards,
untimed, and compares the result with values from `spaces`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional

import spaces
from spaces import TEXTBOOK, CLASS_TABLE


class Round:
    """One pass over a workload's jobs, in a fixed order."""

    def __init__(self):
        self.run_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.problems: List[str] = []

    def job(self, name: str, call: Callable, check: Optional[Callable] = None):
        """Time call(); a raise counts as a failed operation, a wrong output
        as a problem.  Returns the result, or None when the call failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the round goes on; the failure is counted
            self.run_s += time.perf_counter() - start
            self.failed += 1
            self.failures.append(f"{name}: {exc!r}")
            return None
        self.run_s += time.perf_counter() - start
        if check is not None:
            try:
                self.problems.extend(f"{name}: {m}" for m in check(result))
            except Exception as exc:
                self.problems.append(f"{name}: check raised {exc!r}")
        return result


def _same(what: str, got, want) -> Iterable[str]:
    if got != want:
        yield f"{what} is {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# certify: the X -> X* bordism, certified, across the orientable catalog


@dataclasses.dataclass
class Space:
    name: str
    link: Optional[str]  # L for X = ΣL, None for a manifold
    reference: object  # the catalog stratification
    X: object  # its seeded relabeling
    poles: frozenset  # the suspension points of X, empty for a manifold

    @property
    def table(self):
        if self.link is None:
            return TEXTBOOK[self.name]
        return spaces.suspension_table(TEXTBOOK[self.link])


CERTIFY = (("Sigma-T2", "T2"), ("RP3", None), ("Sigma-T3", "T3"))
CLASSES = (("witt", "Q"), ("ip", None), ("euler2", None))


def _seeded_catalog_space(name, link, seed) -> Space:
    from stratabord import catalog

    FX = catalog.get(name).stratifications[0]
    vmap = spaces.vertex_relabeling(FX.complex.vertices, seed, name)
    # The catalog suspends L on two new vertices above L's (max+1, max+2).
    poles = frozenset(vmap[v] for v in FX.complex.vertices[-2:]) if link else frozenset()
    return Space(name, link, FX, spaces.relabel_filtration(FX, vmap), poles)


def setup_certify(seed: int):
    return [_seeded_catalog_space(name, link, seed) for name, link in CERTIFY]


def jobs_certify(inputs: List[Space], rnd: Round) -> None:
    from stratabord import algebra, bordism, classes, jsonio, strat

    for sp in inputs:
        X, tag = sp.X, sp.name
        chi_x = spaces.euler_from_facets(X.complex.facets)
        table = sp.table

        def check_validate(rep):
            yield from _same("passed", rep.passed, True)

        rnd.job(f"{tag} validate", lambda: strat.validate_stratified_pseudomanifold(X), check_validate)
        rnd.job(
            f"{tag} relabeling isomorphism",
            lambda: bordism.stratified_isomorphism(X, sp.reference),
            lambda m: [] if m is not None else ["no stratified isomorphism to the catalog copy"],
        )

        def check_intrinsic(Xs):
            sing = set(Xs.skeleton(Xs.dim - 1).faces)
            yield from _same("singular set of X*", sing, {(p,) for p in sp.poles})

        rnd.job(f"{tag} intrinsic", lambda: strat.intrinsic_stratification(X.complex), check_intrinsic)

        def check_bordism(cert):
            facets = sorted(cert.Y.complex.facets)
            rim = spaces.free_ridges(facets)
            images = [{p.iso.apply(f) for f in p.space.complex.facets} for p in cert.pieces]
            yield from _same("piece labels", [p.label for p in cert.pieces], ["plus", "minus"])
            yield from _same("pieces cover ∂Y", set().union(*images), rim)
            yield from _same("piece facets", sum(map(len, images)), len(rim))
            yield from _same("χ(∂Y)", spaces.euler_from_facets(rim), 2 * chi_x)

        cert = rnd.job(f"{tag} bordism", lambda: bordism.bordism_to_intrinsic(X), check_bordism)
        parsed = rnd.job(
            f"{tag} certificate json",
            lambda: jsonio.certificate_from_json(
                jsonio.loads(jsonio.dumps(jsonio.certificate_to_json(cert)))
            ),
            lambda c: _same("parsed carrier", c.Y.complex.facets, cert.Y.complex.facets),
        )

        def check_verify(rep):
            yield from _same("passed", rep.passed, True)
            yield from _same("failing checks", [k for k, ok in rep.checks.items() if not ok], [])

        rnd.job(f"{tag} verify", lambda: bordism.verify_certificate(parsed), check_verify)

        def check_homology(groups):
            got = spaces.groups_table(groups)
            yield from _same("H_*(Y; Z)", got, spaces.carrier_table(table))
            chi_y = spaces.euler_from_facets(cert.Y.complex.facets)
            yield from _same("χ(Y)", chi_y, chi_x)
            yield from _same("Σ(−1)^i rank", sum((-1) ** i * r for i, (r, _t) in enumerate(got)), chi_y)

        rnd.job(f"{tag} H(Y;Z)", lambda: algebra.homology(cert.Y.complex, algebra.ZZ), check_homology)

        known = CLASS_TABLE[sp.link]
        for cname, ring in CLASSES:
            E = classes.builtin(cname, algebra.parse_ring(ring) if ring else None)
            want = known[cname]
            rnd.job(
                f"{tag} X in {cname}",
                lambda: classes.links_in_class(X, E),
                lambda v: _same("verdict", v.verdict, want),
            )
            if want:
                rnd.job(
                    f"{tag} Y in {cname}",
                    lambda: classes.links_in_class(cert.Y, E),
                    lambda v: _same("verdict", v.verdict, True),
                )


# ---------------------------------------------------------------------------
# algebra-rings: a few large boundary matrices over Z, Q, F2, F3 and IH


@dataclasses.dataclass
class Carrier:
    name: str
    link: Optional[str]  # L for X = ΣᵏL, None for a manifold
    k: int
    Y: object
    chi: Optional[int] = None

    @property
    def table(self):
        return spaces.suspension_table(TEXTBOOK[self.link or self.name], self.k)

    def ih_table(self, perversity):
        return spaces.ih_of_suspension(TEXTBOOK[self.link or self.name], self.k, perversity)


def setup_rings(seed: int):
    from stratabord import bordism, catalog, complexes, strat

    out = []
    for name, link in (("Sigma-T3", "T3"), ("RP3", None)):
        sp = _seeded_catalog_space(name, link, seed)
        out.append(Carrier(name, link, 1 if link else 0, bordism.bordism_to_intrinsic(sp.X).Y))
    K = catalog.get("T2").complex
    for _ in range(3):
        K = complexes.suspension(K)
    K = K.relabel(spaces.vertex_relabeling(K.vertices, seed, "Sigma3-T2"))
    X = dataclasses.replace(strat.intrinsic_stratification(K), orientation=complexes.orient(K))
    out.append(Carrier("Sigma3-T2", "T2", 3, bordism.bordism_to_intrinsic(X).Y))
    return {c.name: c for c in out}


# (carrier, ring) homology jobs and (carrier, ring, perversity) IH jobs.
# The mix keeps each elimination route above a fifth of run_s: unit
# elimination with a Smith residual (Z, Q), _rank_mod_p (F2, F3) and the
# tracked Smith form behind kernel_basis/solve_exact (IH over Z).
RING_HOMOLOGY = (
    ("Sigma-T3", "Z"), ("Sigma-T3", "Q"),
    ("RP3", "Z"), ("RP3", "Q"), ("RP3", "F2"), ("RP3", "F3"),
    ("Sigma3-T2", "Z"), ("Sigma3-T2", "Q"),
)
RING_IH = (
    ("Sigma3-T2", "Z", "lower-middle"),
    ("Sigma3-T2", "Q", "lower-middle"), ("Sigma3-T2", "Q", "upper-middle"),
    ("Sigma-T3", "Q", "lower-middle"), ("Sigma-T3", "Q", "upper-middle"),
    ("RP3", "Z", "lower-middle"), ("RP3", "Z", "upper-middle"),
)
PERVERSITIES = {"lower-middle": spaces.lower_middle, "upper-middle": spaces.upper_middle}


def _expect_groups(what, got, table, ring_text):
    """Compare a computed table with the textbook one over the given ring."""
    if ring_text == "Z":
        yield from _same(what, got, tuple(table))
        return
    p = None if ring_text == "Q" else int(ring_text[1:])
    yield from _same(what, tuple(r for r, _t in got), spaces.field_ranks(table, p))
    yield from _same(f"{what} torsion", [t for _r, t in got if t], [])


def jobs_rings(inputs: Dict[str, Carrier], rnd: Round) -> None:
    from stratabord import algebra, ih

    for name, ring_text in RING_HOMOLOGY:
        c = inputs[name]
        ring = algebra.parse_ring(ring_text)

        def check(groups):
            got = spaces.groups_table(groups)
            yield from _expect_groups(f"H_*(Y; {ring_text})", got, spaces.carrier_table(c.table), ring_text)
            if c.chi is None:
                c.chi = spaces.euler_from_facets(c.Y.complex.facets)
            yield from _same("Σ(−1)^i rank", sum((-1) ** i * r for i, (r, _t) in enumerate(got)), c.chi)

        rnd.job(f"{name} H {ring_text}", lambda: algebra.homology(c.Y.complex, ring), check)

    for name, ring_text, pname in RING_IH:
        c = inputs[name]
        ring = algebra.parse_ring(ring_text)
        p = getattr(ih, pname.replace("-", "_"))(c.Y.dim)
        want = spaces.carrier_table(c.ih_table(PERVERSITIES[pname]))
        rnd.job(
            f"{name} IH {ring_text} {pname}",
            lambda: ih.intersection_homology(c.Y, p, ring),
            lambda groups: _expect_groups("IH", spaces.groups_table(groups), want, ring_text),
        )


# ---------------------------------------------------------------------------
# cli: the stratabord command line, one fresh process per invocation

MALFORMED = {
    # no "facets": a KeyError traceback today
    "no_facets.json": {"type": "filtered_complex", "skeleta": [], "boundary": None},
    # a top-level list: an AttributeError traceback today
    "top_list.json": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    # string vertex ids, which jsonio documents as integers: accepted today
    "string_ids.json": {
        "type": "complex",
        "facets": [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]],
    },
    # an orientation sign that is not ±1: accepted today
    "sign_seven.json": {
        "type": "filtered_complex",
        "facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        "skeleta": [[], []],
        "boundary": None,
        "orientation": [[[0, 1, 2], 7], [[0, 1, 3], -1], [[0, 2, 3], 1], [[1, 2, 3], -1]],
        "classical": True,
        "heuristic": False,
    },
}


@dataclasses.dataclass
class CliInputs:
    workdir: str
    poles: Dict[str, frozenset]  # seeded suspension points per input file


def setup_cli(seed: int, workdir: str) -> CliInputs:
    from stratabord import catalog, jsonio

    poles = {}
    for name, link, fname in (
        ("Sigma-T2", "T2", "st2.json"),
        ("Sigma-T3", "T3", "st3.json"),
        ("T3", None, "t3.json"),
    ):
        sp = _seeded_catalog_space(name, link, seed)
        jsonio.write_file(os.path.join(workdir, fname), jsonio.filtration_to_json(sp.X))
        poles[fname] = sp.poles
    # The catalog torus with two vertices swapped and its orientation carried
    # along: orientation-preservingly isomorphic to the catalog copy.
    T2 = catalog.get("T2").stratifications[0]
    swapped = spaces.relabel_filtration(T2, spaces.transposition(T2.complex.vertices))
    jsonio.write_file(os.path.join(workdir, "t2swap.json"), jsonio.filtration_to_json(swapped))
    for fname, doc in MALFORMED.items():
        with open(os.path.join(workdir, fname), "w") as fh:
            json.dump(doc, fh)
    return CliInputs(workdir, poles)


class Broken(Exception):
    """A command broke the exit-code contract: a failed operation."""


@dataclasses.dataclass
class Call:
    code: int
    stdout: str
    stderr: str

    def report(self):
        return json.loads(self.stdout)


def _ranks(report):
    return tuple(row["rank"] for row in report["table"])


def _table(report):
    return tuple((row["rank"], tuple(row["torsion"])) for row in report["table"])


def jobs_cli(inputs: CliInputs, rnd: Round, invoke: Callable[[List[str]], Call]) -> None:
    wd = inputs.workdir

    def step(name, argv, code, check=None):
        """One command; it fails unless it exits with `code`, and with code 2
        (bad input) only with a one-line message and no traceback."""

        def call():
            c = invoke(argv)
            lines = c.stderr.strip().splitlines()
            if c.code != code or (code == 2 and (len(lines) != 1 or "Traceback" in c.stderr)):
                raise Broken(f"exit {c.code}, expected {code}; {len(lines)} stderr lines")
            return c

        return rnd.job(name, call, check)

    step("catalog list", ["catalog", "list", "--json"], 0,
         lambda c: _same("names", tuple(c.report()["names"]), spaces.CATALOG_NAMES))

    def emitted(c):
        with open(os.path.join(wd, "emitted.json")) as fh:
            doc = json.load(fh)
        yield from _same("type", doc["type"], "filtered_complex")
        yield from _same("facet count", len(doc["facets"]), 28)  # ΣT²: 2 × 14 triangles

    step("catalog emit", ["catalog", "emit", "Sigma-T2", "--out", "emitted.json", "--json"], 0, emitted)
    passed = lambda c: _same("passed", c.report()["passed"], True)
    step("validate emitted", ["validate", "emitted.json", "--json"], 0, passed)
    step("validate seeded ΣT³", ["validate", "st3.json", "--json"], 0, passed)

    def strata_census(c):
        singular = [s for s in c.report()["strata"] if not s["regular"]]
        got = {tuple(t) for s in singular for t in s["top_simplices"]}
        yield from _same("singular strata", got, {(p,) for p in inputs.poles["st2.json"]})

    first = step("stratify seeded ΣT²", ["stratify", "st2.json", "--json"], 0, strata_census)
    step(
        "stratify seeded ΣT² again",
        ["stratify", "st2.json", "--json"],
        0,
        lambda c: [] if first is not None and c.stdout == first.stdout else ["output differs between two runs"],
    )

    def links_check(c):
        rows = c.report()["links"]
        yield from _same("links", [(r["link_dim"], len(r["link_facets"])) for r in rows], [(2, 14), (2, 14)])

    step("links catalog ΣT²", ["links", "catalog:Sigma-T2", "--json"], 0, links_check)
    step("homology seeded T³", ["homology", "t3.json", "--ring", "Z", "--json"], 0,
         lambda c: _same("H_*", _table(c.report()), TEXTBOOK["T3"]))
    step("homology catalog ℝP³ F2", ["homology", "catalog:RP3", "--ring", "F2", "--json"], 0,
         lambda c: _same("ranks", _ranks(c.report()), spaces.field_ranks(TEXTBOOK["RP3"], 2)))
    step("ih seeded ΣT² Q upper", ["ih", "st2.json", "--ring", "Q", "--perversity", "upper-middle", "--json"], 0,
         lambda c: _same("ranks", _ranks(c.report()),
                         spaces.field_ranks(spaces.ih_of_suspension(TEXTBOOK["T2"], 1, spaces.upper_middle), None)))
    step("ih catalog ΣT² Z lower", ["ih", "catalog:Sigma-T2", "--ring", "Z", "--json"], 0,
         lambda c: _same("IH", _table(c.report()),
                         spaces.ih_of_suspension(TEXTBOOK["T2"], 1, spaces.lower_middle)))

    def witt_no(c):
        v = c.report()["verdicts"]["stratified"]
        yield from _same("member", v["member"], False)
        yield from _same("witness stratum dim", (v.get("witness") or {}).get("stratum_dim"), 0)

    step("classify catalog ΣT² witt witness",
         ["classify", "catalog:Sigma-T2", "--class", "witt:Q", "--witness", "--json"], 1, witt_no)

    def euler_both(c):
        r = c.report()
        yield from _same("routes", sorted((k, v["member"]) for k, v in r["verdicts"].items()),
                         [("polyhedral", True), ("stratified", True)])

    step("classify seeded ΣT² euler2 both", ["classify", "st2.json", "--class", "euler2", "--via", "both", "--json"], 0,
         euler_both)
    step("classify seeded ΣT² siegel witt", ["classify", "st2.json", "--class", "siegel:witt:Q", "--json"], 1,
         lambda c: _same("member", c.report()["member"], False))

    step("bordism to-intrinsic catalog ΣT²",
         ["bordism", "to-intrinsic", "catalog:Sigma-T2", "--out", "cert.json", "--json"], 0, passed)
    step("bordism verify", ["bordism", "verify", "cert.json", "--json"], 0, passed)

    def flip(touches_rim: bool, out: str):
        # Flip the orientation sign of the first carrier facet that has (or
        # has not) a ridge on the boundary.
        with open(os.path.join(wd, "cert.json")) as fh:
            doc = json.load(fh)
        rim = spaces.free_ridges(doc["carrier"]["facets"])
        entry = next(
            e for e in doc["carrier"]["orientation"]
            if bool(rim & spaces.free_ridges([e[0]])) == touches_rim
        )
        entry[1] *= -1
        with open(os.path.join(wd, out), "w") as fh:
            json.dump(doc, fh)

    try:
        flip(True, "flipped.json")
        flip(False, "flipped_interior.json")
    except (OSError, ValueError, KeyError, StopIteration, TypeError) as exc:
        rnd.problems.append(f"flipping a sign of cert.json: {exc!r}")

    def flipped(c):
        r = c.report()
        yield from _same("passed", r["passed"], False)
        yield from _same("signs_match", r["checks"].get("signs_match"), False)

    step("bordism verify flipped", ["bordism", "verify", "flipped.json", "--json"], 1, flipped)
    # Known fault: verify_certificate checks signs on the boundary only, so an
    # incoherent interior exits 0.
    step("bordism verify flipped interior", ["bordism", "verify", "flipped_interior.json", "--json"], 1,
         lambda c: _same("passed", c.report()["passed"], False))
    step("bordism cylinder catalog T²", ["bordism", "cylinder", "catalog:T2", "--out", "cyl.json", "--json"], 0,
         passed)

    def glued(c):
        r = c.report()
        yield from _same("passed", r["passed"], True)
        yield from _same("pieces", [(p["label"], p["sign"]) for p in r["pieces"]], [("minus", -1), ("plus", 1)])

    step("glue", ["glue", "cyl.json", "cyl.json", "--along", "plus,minus", "--out", "glued.json", "--json"], 0,
         glued)
    step("bordism cylinder swapped T²", ["bordism", "cylinder", "t2swap.json", "--out", "cyl2.json", "--json"], 0,
         passed)
    # Known fault: glue copies Y2's orientation signs through an odd
    # relabeling unchanged, so the seam clashes and the command exits 2.
    step("glue swapped", ["glue", "cyl.json", "cyl2.json", "--along", "plus,minus", "--out", "glued2.json", "--json"],
         0, glued)

    # Known fault: malformed input must exit 2 with a one-line message and no
    # traceback; jsonio does not check its input, so all four break that.
    for fname in MALFORMED:
        step(f"validate {fname}", ["validate", fname], 2)
