"""JSON interchange for every value the CLI reads or writes.

Every document carries "version": 1 and is rejected otherwise.  Elements of
Q(sqrt(d)) are 4-tuples [a_num, a_den, b_num, b_den] under a field header
{"d": [num, den]}; matrices are {"rows", "cols", "entries"}; groups are
{"order", "table"}, a multiplication table whose element 0 is the identity;
G-sets are {"size", "action"} with one permutation per canonical group
generator.  A stabilization problem is {"phi_plus", "phi_minus"}; the key
"tau" of older files carried no information and is ignored.

Every integer a loader reads must be a JSON integer: 0.5, 1.0, "1" and true
are rejected, not truncated, although Python counts true as the integer 1.
That covers the integers of field elements and matrix sizes, group tables
and subgroups, G-set sizes, vertex and edge indices (a quiver's "src", "tgt"
and relation paths), dimensions, species indices and twists, and an HC
module's ell, epsilon, window and space dimensions.  The weights that key an
HC module's JSON objects are strings, each the canonical decimal form of its
weight.  A representation's "semilinear" list is present exactly when
|G| = 2 and has one matrix per vertex, and a species field's "realization"
is the one dump_species writes for it.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exact import QuadMatrix, _field_tag, from_coefficients
from .gsets import FiniteGroup, GSet, Subgroup
from .quiver import RationalQuiver
from .reps import QuiverRep, SpeciesRep
from .species import BimoduleSummand, EtaleSpecies

SCHEMA_VERSION = 1


class ParseError(ValueError):
    pass


# What a document of the right version but the wrong shape raises on its way
# through the loaders and the constructors they call: a missing key, a short
# list, a value of the wrong type, a zero denominator, a failed invariant.
_MALFORMED = (KeyError, IndexError, TypeError, AttributeError, ValueError, ZeroDivisionError)


def _loader(load):
    """Report any malformed input to load as a ParseError."""
    @functools.wraps(load)
    def wrapper(*args):
        try:
            return load(*args)
        except ParseError:
            raise
        except _MALFORMED as exc:
            raise ParseError(f"malformed input to {load.__name__}: "
                             f"{type(exc).__name__}: {exc}") from exc
    return wrapper


def _int(x) -> int:
    """x if it is a JSON integer; a float, bool or string is rejected, not truncated."""
    if type(x) is not int:
        raise ParseError(f"expected an integer, got {x!r}")
    return x


def _weight(key: str) -> int:
    """The weight key names, if key is its canonical decimal string."""
    if str(int(key)) != key:
        raise ParseError(f"weight key {key!r} is not a canonical integer")
    return int(key)


def _check_version(data):
    if not isinstance(data, dict) or data.get("version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported or missing schema version "
                         f"(expected {SCHEMA_VERSION})")


def dump_fraction(x) -> list:
    x = Fraction(x)
    return [x.numerator, x.denominator]


@_loader
def load_fraction(data) -> Fraction:
    return Fraction(_int(data[0]), _int(data[1]))


def dump_matrix(m: QuadMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m.coefficients()}


@_loader
def load_matrix(data, d) -> QuadMatrix:
    d = _field_tag(d)  # a square d is reported before any fault in data
    rows, cols = _int(data["rows"]), _int(data["cols"])
    if rows < 0 or cols < 0:
        raise ParseError(f"matrix dimensions must be nonnegative, got {rows}x{cols}")
    entries = []
    for e in data["entries"]:
        if len(e) != 4:
            raise ParseError(f"a field element has 4 integers, got {len(e)}")
        entries.append((_int(e[0]), _int(e[1]), _int(e[2]), _int(e[3])))
    if len(entries) != rows * cols:
        raise ParseError("entries length does not match rows*cols")
    return from_coefficients(rows, cols, entries, d)


def dump_group(g: FiniteGroup) -> dict:
    return {"order": g.order, "table": [list(row) for row in g.table]}


@_loader
def load_group(data) -> FiniteGroup:
    return FiniteGroup(data["table"])


def dump_gset(x: GSet) -> dict:
    return {"size": x.size,
            "action": [list(x.action[g]) for g in x.group.canonical_generators]}


@_loader
def load_gset(data, group: FiniteGroup) -> GSet:
    """The action is listed per canonical generator of group."""
    return GSet.from_generator_perms(group, _int(data["size"]),
                                     [list(p) for p in data["action"]])


def dump_quiver(q: RationalQuiver) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "group": dump_group(q.group),
        "vertices": dump_gset(q.vertices),
        "edges": dump_gset(q.edges),
        "src": list(q.src),
        "tgt": list(q.tgt),
        "relations": [[list(p), list(qq)] for p, qq in q.relations],
    }


@_loader
def load_quiver(data) -> RationalQuiver:
    _check_version(data)
    group = load_group(data["group"])
    vertices = load_gset(data["vertices"], group)
    edges = load_gset(data["edges"], group)
    return RationalQuiver(vertices, edges, data["src"], data["tgt"],
                          [(tuple(p), tuple(qq)) for p, qq in data["relations"]])


def _realization(s: EtaleSpecies, i: int):
    """How a species file names field i: "Q" or "Q(sqrt d)" over C2, else None."""
    if not s.is_quadratic():
        return None
    return "Q" if s.realized_field(i) == "K" else "Q(sqrt d)"


def dump_species(s: EtaleSpecies) -> dict:
    fields = [{"subgroup": sorted(h.elements), "realization": _realization(s, i)}
              for i, h in enumerate(s.vertex_subgroups)]
    bims = []
    for (i, j), summands in sorted(s.bimodules.items()):
        bims.append({
            "from": i, "to": j,
            "summands": [{"subgroup": sorted(x.subgroup.elements),
                          "twist_src": x.twist_src, "twist_tgt": x.twist_tgt}
                         for x in summands],
        })
    return {"version": SCHEMA_VERSION, "group": dump_group(s.group),
            "indices": s.n_indices, "fields": fields, "bimodules": bims}


@_loader
def load_species(data) -> EtaleSpecies:
    _check_version(data)
    group = load_group(data["group"])
    subs = [Subgroup(group, f["subgroup"]) for f in data["fields"]]
    if _int(data["indices"]) != len(subs):
        raise ParseError(f"indices {data['indices']} does not match the {len(subs)} fields")
    bims = {}
    for b in data["bimodules"]:
        bims[(_int(b["from"]), _int(b["to"]))] = [
            BimoduleSummand(Subgroup(group, x["subgroup"]),
                            _int(x["twist_src"]), _int(x["twist_tgt"]))
            for x in b["summands"]]
    species = EtaleSpecies(group, subs, bims)
    for i, f in enumerate(data["fields"]):
        if f["realization"] != (want := _realization(species, i)):
            raise ParseError(f"field {i} has realization {f['realization']!r}, not {want!r}")
    return species


def dump_rep(r: QuiverRep) -> dict:
    out = {
        "version": SCHEMA_VERSION,
        "d": dump_fraction(r.d),
        "quiver": dump_quiver(r.quiver),
        "dims": list(r.dims),
        "edges": [dump_matrix(m) for m in r.edge_maps],
    }
    if r.rho is not None:
        out["semilinear"] = [dump_matrix(m) for m in r.rho]
    return out


@_loader
def load_rep(data) -> QuiverRep:
    _check_version(data)
    d = load_fraction(data["d"])
    quiver = load_quiver(data["quiver"])
    edges = [load_matrix(m, d) for m in data["edges"]]
    rho = None
    if "semilinear" in data:
        rho = [load_matrix(m, d) for m in data["semilinear"]]
    return QuiverRep(quiver, data["dims"], edges, rho, d)


def dump_species_rep(w: SpeciesRep) -> dict:
    maps = []
    for (i, j), mats in sorted(w.maps.items()):
        maps.append({"from": i, "to": j,
                     "matrices": [dump_matrix(m) for m in mats]})
    return {"version": SCHEMA_VERSION, "d": dump_fraction(w.d),
            "species": dump_species(w.species), "dims": list(w.dims),
            "maps": maps}


@_loader
def load_species_rep(data) -> SpeciesRep:
    _check_version(data)
    d = load_fraction(data["d"])
    species = load_species(data["species"])
    maps = {}
    for entry in data["maps"]:
        maps[(_int(entry["from"]), _int(entry["to"]))] = [
            load_matrix(m, d) for m in entry["matrices"]]
    return SpeciesRep(species, data["dims"], maps, d)


def dump_hc(m) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "d": dump_fraction(m.d),
        "ell": m.ell,
        "epsilon": m.epsilon,
        "window": m.window,
        "spaces": {str(w): m.spaces[w] for w in sorted(m.spaces)},
        "X": {str(w): dump_matrix(m.x_maps[w]) for w in sorted(m.x_maps)},
        "Y": {str(w): dump_matrix(m.y_maps[w]) for w in sorted(m.y_maps)},
        "rational": {str(w): dump_matrix(m.rat[w]) for w in sorted(m.rat)},
        "tails": {"plus": dump_matrix(m.phi_plus),
                  "minus": dump_matrix(m.phi_minus)},
    }


@_loader
def load_hc(data):
    from .hc import HCModule

    _check_version(data)
    d = load_fraction(data["d"])
    return HCModule(
        _int(data["ell"]), _int(data["epsilon"]), _int(data["window"]),
        {_weight(w): _int(v) for w, v in data["spaces"].items()},
        {_weight(w): load_matrix(m, d) for w, m in data["X"].items()},
        {_weight(w): load_matrix(m, d) for w, m in data["Y"].items()},
        {_weight(w): load_matrix(m, d) for w, m in data["rational"].items()},
        load_matrix(data["tails"]["plus"], d),
        load_matrix(data["tails"]["minus"], d),
        d,
    )


def dump_matrix_file(m: QuadMatrix, gamma=None) -> dict:
    out = {"version": SCHEMA_VERSION, "d": dump_fraction(m.d),
           "matrix": dump_matrix(m)}
    if gamma is not None:
        out["gamma"] = dump_fraction(gamma)
    return out


@_loader
def load_matrix_file(data):
    _check_version(data)
    d = load_fraction(data["d"])
    gamma = load_fraction(data["gamma"]) if "gamma" in data else None
    return load_matrix(data["matrix"], d), gamma


def dump_stabilization(p) -> dict:
    return {"version": SCHEMA_VERSION, "d": dump_fraction(p.phi_plus.d),
            "phi_plus": dump_matrix(p.phi_plus),
            "phi_minus": dump_matrix(p.phi_minus)}


@_loader
def load_stabilization(data):
    from .unipotent import StabilizationProblem

    _check_version(data)
    d = load_fraction(data["d"])
    return StabilizationProblem(load_matrix(data["phi_plus"], d),
                                load_matrix(data["phi_minus"], d))
