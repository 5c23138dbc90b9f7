"""Command-line interface: interchange-file parsing, fixture registry and
verification-report rendering for every subsystem."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

from . import hc as hc_mod
from . import serialize as io
from .gsets import Subgroup
from .quiver import (
    CYCLIC_A, CYCLIC_B, CYCLIC_MINUS, CYCLIC_PLUS,
    GELFAND_A_MINUS, GELFAND_A_PLUS, GELFAND_B_MINUS, GELFAND_B_PLUS,
    GELFAND_MINUS, GELFAND_PLUS, GELFAND_STAR,
    base_change, cyclic_quiver, gelfand_quiver, quiver_homs, restrict, validate,
)
from .reps import QuiverRep, _validate_structure, functor_F, functor_H, hom_space, \
    rep_base_change, rep_isomorphic, validate_rep
from .species import (
    quiver_of_species, roundtrip_quiver, roundtrip_species,
    species_base_change, species_of_quiver, species_restrict,
)
from .unipotent import scaled_sqrt, stabilize, unipotent_sqrt


class UsageError(ValueError):
    pass


@dataclass
class Report:
    command: str
    checks: list = field(default_factory=list)   # (name, ok, witness)
    payload: dict = field(default_factory=dict)

    def add(self, name, ok, witness=""):
        self.checks.append((name, bool(ok), str(witness)))

    @property
    def exit_status(self) -> int:
        return 0 if all(ok for _, ok, _ in self.checks) else 1

    def to_json(self) -> str:
        doc = {
            "version": io.SCHEMA_VERSION,
            "command": self.command,
            "checks": [{"name": n, "pass": ok, "witness": w}
                       for n, ok, w in self.checks],
            "payload": self.payload,
            "exit_status": self.exit_status,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"# {self.command}"]
        for n, ok, w in self.checks:
            status = "PASS" if ok else "FAIL"
            lines.append(f"{status:4s} {n}" + (f"  [{w}]" if w else ""))
        for key in sorted(self.payload):
            value = self.payload[key]
            if isinstance(value, str) and "\n" in value:
                lines.append(f"{key}:")
                lines.extend("  " + ln for ln in value.split("\n"))
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines)


def _fmt_ratio(n: int, den: int) -> str:
    """str(Fraction(n, den)) for n/den in lowest terms, den > 0."""
    return str(n) if den == 1 else f"{n}/{den}"


def _fmt_matrix(m) -> str:
    """Rows of entries a, bi or a+bi (r in place of i when d != -1), read
    off m.coefficients(), so no field element is built."""
    if m.rows == 0 or m.cols == 0:
        return "0"
    unit = "i" if m.d == -1 else "r"
    cells = []
    for an, ad, bn, bd in m.coefficients():
        if not bn:
            cells.append(_fmt_ratio(an, ad))
        elif not an:
            cells.append(_fmt_ratio(bn, bd) + unit)
        else:
            cells.append(_fmt_ratio(an, ad) + ("+" if bn > 0 else "-")
                         + _fmt_ratio(abs(bn), bd) + unit)
    c = m.cols
    return "[" + "; ".join(" ".join(cells[i:i + c]) for i in range(0, len(cells), c)) + "]"


def render_diagram(rep: QuiverRep) -> str:
    """Aligned text diagram of a Gelfand or cyclic quiver representation."""
    field_name = "Q(i)" if rep.d == -1 else f"Q(sqrt({rep.d}))"

    def space(dim):
        if dim == 0:
            return "0"
        return field_name if dim == 1 else f"{field_name}^{dim}"

    if rep.quiver == gelfand_quiver():
        lines = [
            "spaces   : M(-) = %s | M(*) = %s | M(+) = %s" % (
                space(rep.dims[GELFAND_MINUS]), space(rep.dims[GELFAND_STAR]),
                space(rep.dims[GELFAND_PLUS])),
            "a- : M(-) -> M(*) = " + _fmt_matrix(rep.edge_maps[GELFAND_A_MINUS]),
            "b- : M(*) -> M(-) = " + _fmt_matrix(rep.edge_maps[GELFAND_B_MINUS]),
            "b+ : M(*) -> M(+) = " + _fmt_matrix(rep.edge_maps[GELFAND_B_PLUS]),
            "a+ : M(+) -> M(*) = " + _fmt_matrix(rep.edge_maps[GELFAND_A_PLUS]),
            "conj_* = c o " + _fmt_matrix(rep.rho[GELFAND_STAR]),
            "conj_+ = c o " + _fmt_matrix(rep.rho[GELFAND_PLUS]),
            "conj_- = c o " + _fmt_matrix(rep.rho[GELFAND_MINUS]),
        ]
        return "\n".join(lines)
    if rep.quiver == cyclic_quiver():
        lines = [
            "spaces   : M(-) = %s | M(+) = %s" % (
                space(rep.dims[CYCLIC_MINUS]), space(rep.dims[CYCLIC_PLUS])),
            "a : M(-) -> M(+) = " + _fmt_matrix(rep.edge_maps[CYCLIC_A]),
            "b : M(+) -> M(-) = " + _fmt_matrix(rep.edge_maps[CYCLIC_B]),
            "conj_+ = c o " + _fmt_matrix(rep.rho[CYCLIC_PLUS]),
            "conj_- = c o " + _fmt_matrix(rep.rho[CYCLIC_MINUS]),
        ]
        return "\n".join(lines)
    raise UsageError("diagrams are rendered for Gelfand and cyclic representations")


# ------------------------------------------------------------------- helpers

def _distinct_keys(pairs) -> dict:
    """A JSON object; json.load alone keeps the last value of a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise io.ParseError(f"key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def _read(path):
    if path is None:
        raise UsageError("an input file option (--in, --a, --b or --parent) is missing")
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_distinct_keys)
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    except (json.JSONDecodeError, io.ParseError) as exc:
        raise io.ParseError(f"{path}: {exc}") from exc


def _write(report, path, doc):
    """Write doc as JSON to path and record the "written" check in report."""
    if path is None:
        raise UsageError("the output file option --out is missing")
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    report.add("written", True, path)


def _subgroup(group, spec: str) -> Subgroup:
    if spec is None:
        raise UsageError("the option --subgroup is missing")
    try:
        elements = [int(x) for x in spec.split(",") if x != ""]
        return Subgroup(group, elements)
    except ValueError as exc:
        raise UsageError(f"bad subgroup {spec!r}: {exc}") from exc


def _require_valid(what, validation):
    """Stop with a usage error (exit 2) naming every failing check of a
    validation report: the input does not meet the command's preconditions."""
    failures = validation.failures()
    if failures:
        raise UsageError(f"invalid {what}: " + "; ".join(
            f"FAIL {name}" + (f" [{witness}]" if witness else "") for name, witness in failures))


def _load_valid_rep(path) -> QuiverRep:
    """The rep in the file at path, once its quiver and the rep itself pass
    validation (nilpotency is neither required nor computed): the rep
    commands that compute with a rep are defined on valid reps only."""
    r = io.load_rep(_read(path))
    _require_valid("quiver", validate(r.quiver))
    _require_valid("representation", _validate_structure(r))
    return r


def _report_validation(report, rep):
    for name, ok, witness in rep.checks:
        report.add(name, ok, witness)
    if rep.flags:
        report.payload["flags"] = ",".join(rep.flags)


# ------------------------------------------------------------------- quiver

def _cmd_quiver(args) -> Report:
    report = Report("quiver " + args.action)
    if args.action == "validate":
        q = io.load_quiver(_read(args.infile))
        _report_validation(report, validate(q))
    elif args.action == "base-change":
        q = io.load_quiver(_read(args.infile))
        out = base_change(q, _subgroup(q.group, args.subgroup))
        _write(report, args.out, io.dump_quiver(out))
    elif args.action == "restrict":
        q = io.load_quiver(_read(args.infile))
        parent = io.load_group(_read(args.parent))
        sub = _subgroup(parent, args.subgroup)
        out = restrict(q, sub)
        _write(report, args.out, io.dump_quiver(out))
    elif args.action == "homs":
        a = io.load_quiver(_read(args.a))
        b = io.load_quiver(_read(args.b))
        homs = quiver_homs(a, b)
        report.payload["count"] = len(homs)
        report.payload["homs"] = [
            {"vertices": list(m.vertex_map), "edges": list(m.edge_map)}
            for m in homs]
        report.add("enumerated", True, f"{len(homs)} morphisms")
    return report


# ------------------------------------------------------------------- species

def _cmd_species(args) -> Report:
    report = Report("species " + args.action)
    if args.action == "from-quiver":
        q = io.load_quiver(_read(args.infile))
        _require_valid("quiver", validate(q))
        _write(report, args.out, io.dump_species(species_of_quiver(q)))
    elif args.action == "to-quiver":
        s = io.load_species(_read(args.infile))
        _write(report, args.out, io.dump_quiver(quiver_of_species(s)))
    elif args.action == "roundtrip":
        q = io.load_quiver(_read(args.infile))
        _require_valid("quiver", validate(q))
        witness = roundtrip_quiver(q)
        report.add("quiver-roundtrip", True,
                   f"vertex bijection {list(witness.vertex_bijection)}")
        roundtrip_species(species_of_quiver(q))
        report.add("species-roundtrip", True)
    elif args.action == "base-change":
        s = io.load_species(_read(args.infile))
        out = species_base_change(s, _subgroup(s.group, args.subgroup))
        _write(report, args.out, io.dump_species(out))
    elif args.action == "restrict":
        s = io.load_species(_read(args.infile))
        parent = io.load_group(_read(args.parent))
        out = species_restrict(s, _subgroup(parent, args.subgroup))
        _write(report, args.out, io.dump_species(out))
    return report


# ------------------------------------------------------------------- rep

def _cmd_rep(args) -> Report:
    report = Report("rep " + args.action)
    if args.action == "validate":
        r = io.load_rep(_read(args.infile))
        _report_validation(report, validate_rep(
            r, require_nilpotent=not args.allow_non_nilpotent))
    elif args.action == "hom":
        hs = hom_space(_load_valid_rep(args.a), _load_valid_rep(args.b))
        report.payload["dim_K"] = hs.dim_K
        report.payload["dim_L"] = hs.dim_L
        report.add("descent", hs.dim_K == hs.dim_L,
                   f"dim_K = {hs.dim_K}, dim_L = {hs.dim_L}")
    elif args.action == "to-species":
        _write(report, args.out, io.dump_species_rep(functor_F(_load_valid_rep(args.infile))))
    elif args.action == "from-species":
        w = io.load_species_rep(_read(args.infile))
        _write(report, args.out, io.dump_rep(functor_H(w)))
    elif args.action == "isomorphic":
        mats = rep_isomorphic(_load_valid_rep(args.a), _load_valid_rep(args.b), seed=args.seed)
        report.payload["isomorphic"] = mats is not None
        report.add("search", True,
                   "witness found" if mats is not None else "no isomorphism")
    elif args.action == "base-change":
        r = _load_valid_rep(args.infile)
        out = rep_base_change(r, _subgroup(r.quiver.group, args.subgroup))
        _write(report, args.out, io.dump_rep(out))
    return report


# ------------------------------------------------------------------- unipotent

def _cmd_unipotent(args) -> Report:
    report = Report("unipotent " + args.action)
    if args.action == "stabilize":
        problem = io.load_stabilization(_read(args.infile))
        res = stabilize(problem)
        report.payload["iterations"] = res.iterations
        report.payload["phi_plus_inf"] = io.dump_matrix(res.phi_plus_inf)
        report.payload["phi_minus_inf"] = io.dump_matrix(res.phi_minus_inf)
        if args.trace:
            report.payload["trace"] = [
                {"defect_exponent": t[2]} for t in res.trace]
        ident = (res.phi_minus_inf * res.phi_plus_inf).is_identity()
        report.add("conjugate-inverse", ident)
    elif args.action == "sqrt":
        matrix, gamma = io.load_matrix_file(_read(args.infile))
        root = scaled_sqrt(matrix, gamma) if gamma is not None else \
            unipotent_sqrt(matrix)
        report.payload["root"] = io.dump_matrix(root)
        report.add("squares-back", root * root == matrix)
    return report


# ------------------------------------------------------------------- hc

def _cmd_hc(args) -> Report:
    report = Report("hc " + args.action)
    option = {"build": "ell", "from-quiver": "ell", "roundtrip": "ell",
              "casimir": "weight"}.get(args.action)
    if option and getattr(args, option) is None:
        raise UsageError(f"hc {args.action} needs --{option}")
    if args.action == "build":
        m = hc_mod.build_example(args.kind, args.ell)
        _write(report, args.out, io.dump_hc(m))
    elif args.action == "validate":
        m = io.load_hc(_read(args.infile))
        _report_validation(report, hc_mod.validate_hc(m))
    elif args.action == "to-quiver":
        m = io.load_hc(_read(args.infile))
        res = hc_mod.functor_E(m)
        _write(report, args.out, io.dump_rep(res.rep))
        report.payload["iterations"] = res.iterations
    elif args.action == "from-quiver":
        r = io.load_rep(_read(args.infile))
        m = hc_mod.inverse_E(r, args.ell)
        _write(report, args.out, io.dump_hc(m))
    elif args.action == "roundtrip":
        r = io.load_rep(_read(args.infile))
        rt = hc_mod.roundtrip_hc(r, args.ell)
        report.payload["path"] = rt.path
        report.add("roundtrip", True, f"witness via {rt.path} path")
    elif args.action == "casimir":
        m = io.load_hc(_read(args.infile))
        c = hc_mod.casimir_matrix(m, args.weight)
        report.payload["casimir"] = io.dump_matrix(c)
        report.add("computed", True, f"weight {args.weight}")
    return report


# ------------------------------------------------------------------- examples

def _run_example(kind, ell, report):
    tag = f"{kind} ell={ell}"
    module = hc_mod.build_example(kind, ell)
    res = hc_mod.functor_E(module)  # raises unless the module and its image are valid
    report.add(f"{tag}: module valid", True)
    report.add(f"{tag}: block functor", True)
    rt = hc_mod.roundtrip_hc(res.rep, ell)
    report.add(f"{tag}: roundtrip", rt.path.startswith("constructive"), rt.path)
    w = functor_F(res.rep)
    report.add(f"{tag}: species functor", True,
               f"dims {tuple(w.dims)}")
    report.payload[f"diagram [{tag}]"] = render_diagram(res.rep)


def _cmd_examples(args) -> Report:
    report = Report("examples run")
    if args.cases < 0:
        raise UsageError("--cases must be nonnegative")
    if args.all:
        for kind in hc_mod.KINDS:
            ells = (0, 1, 2) if kind == "discrete" else (1, 2, 3)
            for ell in ells:
                _run_example(kind, ell, report)
    elif args.kind is not None and args.ell is not None:
        _run_example(args.kind, args.ell, report)
    elif not args.cases:
        raise UsageError("examples run needs --all, --kind and --ell, or --cases")
    if args.cases:
        import random as _random

        from .randomgen import random_cyclic_rep, random_gelfand_rep

        rng = _random.Random(args.seed)
        done = 0
        for k in range(args.cases):
            if k % 2 == 0:
                v = random_gelfand_rep(rng, max_dim=2)
                rt = hc_mod.roundtrip_hc(v, rng.randint(1, 3))
            else:
                v = random_cyclic_rep(rng, max_dim=2)
                rt = hc_mod.roundtrip_hc(v, 0)
            done += rt.path.startswith("constructive")
        report.add("random roundtrips", done == args.cases,
                   f"{done}/{args.cases} constructive (seed {args.seed})")
    return report


# ------------------------------------------------------------------- main

@functools.cache  # parse_args does not change the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rquiver",
        description="Exact computations with rational quivers, etale species "
                    "and sl2 Harish-Chandra blocks")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quiver")
    q.add_argument("action", choices=["validate", "base-change", "restrict", "homs"])
    q.add_argument("--in", dest="infile")
    q.add_argument("--out")
    q.add_argument("--subgroup", help="comma-separated element indices")
    q.add_argument("--parent", help="group JSON file (for restrict)")
    q.add_argument("--a")
    q.add_argument("--b")

    s = sub.add_parser("species")
    s.add_argument("action", choices=["from-quiver", "to-quiver", "roundtrip",
                                      "base-change", "restrict"])
    s.add_argument("--in", dest="infile")
    s.add_argument("--out")
    s.add_argument("--subgroup")
    s.add_argument("--parent")

    r = sub.add_parser("rep")
    r.add_argument("action", choices=["validate", "hom", "to-species",
                                      "from-species", "isomorphic", "base-change"])
    r.add_argument("--in", dest="infile")
    r.add_argument("--out")
    r.add_argument("--a")
    r.add_argument("--b")
    r.add_argument("--subgroup")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--allow-non-nilpotent", action="store_true")

    u = sub.add_parser("unipotent")
    u.add_argument("action", choices=["stabilize", "sqrt"])
    u.add_argument("--in", dest="infile", required=True)
    u.add_argument("--trace", action="store_true")

    h = sub.add_parser("hc")
    h.add_argument("action", choices=["build", "validate", "to-quiver",
                                      "from-quiver", "roundtrip", "casimir"])
    h.add_argument("--in", dest="infile")
    h.add_argument("--out")
    h.add_argument("--kind", choices=list(hc_mod.KINDS))
    h.add_argument("--ell", type=int)
    h.add_argument("--weight", type=int)

    e = sub.add_parser("examples")
    e.add_argument("action", choices=["run"])
    e.add_argument("--all", action="store_true")
    e.add_argument("--kind", choices=list(hc_mod.KINDS))
    e.add_argument("--ell", type=int)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--cases", type=int, default=0)
    return parser


DISPATCH = {
    "quiver": _cmd_quiver,
    "species": _cmd_species,
    "rep": _cmd_rep,
    "unipotent": _cmd_unipotent,
    "hc": _cmd_hc,
    "examples": _cmd_examples,
}


def run(argv) -> Report:
    args = build_parser().parse_args(argv)
    return DISPATCH[args.command](args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    try:
        report = DISPATCH[args.command](args)
    except io.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # UsageError, or an input the library rejects (wrong block, invalid
        # module or rep, broken cocycle); construction bugs raise
        # AssertionError or RuntimeError and pass through
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.to_text())
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
