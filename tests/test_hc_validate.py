"""validate_hc on core and junction weights, against its full-window reference.

The reference below is the validator that checked all four per-weight
identities at every window weight and required every ladder map of the
window to be stored.  The current validator checks them on |w| <= ell + 1
only and derives the tail maps from phi_+-; on modules that store the whole
window both must give the same verdict, including on single-entry mutants of
a core map, a tail map, a core or tail block of the rational structure, and
a tail Casimir.

A second reference, ref_rooted_validate_hc, is the validator that evaluated
the identities at +-(ell+1) through the tail square roots.  The current one
reads phi_+- there instead, and its reports (names, verdicts and witnesses)
must equal the reference's on core-only modules and their mutants.
"""

import copy
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import rquiver.hc as hc
from rquiver.cli import main
from rquiver.exact import QuadMatrix, nilpotency_exponent
from rquiver.hc import KINDS, HCModule, OutOfWindow, build_example, casimir_matrix, \
    functor_E, inverse_E, validate_hc
from rquiver.quiver import ValidationReport
from rquiver.randomgen import random_cyclic_rep, random_gelfand_rep
from rquiver.serialize import dump_hc, dump_rep, load_hc

FIELD_TAGS = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3))
MUTATIONS = ("core-map", "tail-map", "core-rat", "tail-rat", "phi")


# ---------------------------------------------------------------- reference

def ref_validate_hc(m):
    checks = []
    ell, n = m.ell, m.window

    ok, wit = True, ""
    try:
        for w in m.weights():
            if w + 2 <= n and w in m.x_maps:
                x = m.x_maps[w]
                if (x.rows, x.cols) != (m.dim(w + 2), m.dim(w)):
                    raise ValueError(f"X[{w}] has wrong shape")
            if w + 2 <= n and w not in m.x_maps:
                raise ValueError(f"X[{w}] missing")
            if w - 2 >= -n and w not in m.y_maps:
                raise ValueError(f"Y[{w}] missing")
            if w in m.y_maps:
                y = m.y_maps[w]
                if (y.rows, y.cols) != (m.dim(w - 2), m.dim(w)):
                    raise ValueError(f"Y[{w}] has wrong shape")
            r = m.rat.get(w)
            if r is None or (r.rows, r.cols) != (m.dim(-w), m.dim(w)):
                raise ValueError(f"rational structure at {w} missing or misshapen")
        for name, phi in (("phi_+", m.phi_plus), ("phi_-", m.phi_minus)):
            if phi.rows != phi.cols:
                raise ValueError(f"tail Casimir {name} is not square")
    except ValueError as exc:
        ok, wit = False, str(exc)
    checks.append(("shape", ok, wit))
    if not ok:
        return ValidationReport(tuple(checks))

    ok, wit = True, ""
    for w in m.weights():
        if w >= ell + 1 and m.dim(w) != m.phi_plus.rows:
            ok, wit = False, f"tail dimension jump at weight {w}"
        if w <= -(ell + 1) and m.dim(w) != m.phi_minus.rows:
            ok, wit = False, f"tail dimension jump at weight {w}"
    lam = Fraction(ell * ell)
    for phi in (m.phi_plus, m.phi_minus):
        dev = phi - QuadMatrix.identity(phi.rows, m.d).scale(lam)
        if nilpotency_exponent(dev) is None:
            ok, wit = False, "tail Casimir is not lambda + nilpotent"
    checks.append(("tail-dims", ok, wit))
    if not ok:
        return ValidationReport(tuple(checks))

    ok, wit = True, ""
    for w in m.weights():
        stored = m.x_maps.get(w)
        if stored is not None and (w >= ell + 1 or w + 2 <= -(ell + 1)):
            if stored != m._tail_x(w):
                ok, wit = False, f"X[{w}] disagrees with the tail closed form"
        stored = m.y_maps.get(w)
        if stored is not None and (w - 2 >= ell + 1 or w <= -(ell + 1)):
            if stored != m._tail_y(w):
                ok, wit = False, f"Y[{w}] disagrees with the tail closed form"
    checks.append(("tail-consistency", ok, wit))
    if not ok:
        return ValidationReport(tuple(checks))

    ok, wit = True, ""
    for w in m.weights():
        lhs = (m.x_at(w - 2) * m.y_at(w) - m.y_at(w + 2) * m.x_at(w)).scale(4)
        if lhs != QuadMatrix.identity(m.dim(w), m.d).scale(Fraction(4 * w)):
            ok, wit = False, f"4[X,Y] != 4w at weight {w}"
            break
    checks.append(("bracket", ok, wit))

    ok, wit = True, ""
    for w in m.weights():
        dev = casimir_matrix(m, w) - QuadMatrix.identity(m.dim(w), m.d).scale(lam)
        if nilpotency_exponent(dev) is None:
            ok, wit = False, f"(C - ell^2) not nilpotent at weight {w}"
            break
    checks.append(("casimir-nilpotent", ok, wit))

    ok, wit = True, ""
    for w in m.weights():
        if not (m.rat[-w] * m.rat[w].conj()).is_identity():
            ok, wit = False, f"rational cocycle fails at weight {w}"
            break
    checks.append(("rational-cocycle", ok, wit))

    ok, wit = True, ""
    for w in m.weights():
        if w + 2 > n:
            continue
        if m.rat[w + 2] * m.x_at(w).conj() != m.y_at(-w) * m.rat[w]:
            ok, wit = False, f"conjugation does not swap X and Y at weight {w}"
            break
    checks.append(("conjugation-swap", ok, wit))

    ok, wit = True, ""
    r = m.rat.get(ell + 1)
    if r is not None and m.dim(ell + 1) == m.phi_plus.rows:
        if m.phi_minus * r != r * m.phi_plus.conj():
            ok, wit = False, "tail Casimirs are not conjugate under the rational structure"
    checks.append(("tail-conjugation", ok, wit))
    return ValidationReport(tuple(checks))


def ref_rooted_validate_hc(m):
    """The validator before it read phi_+- at +-(ell+1): the same checks,
    with the four per-weight identities evaluated on every core weight
    through x_at / y_at, so that +-(ell+1) take the unipotent square roots
    of phi_+-."""
    checks = []
    ell = m.ell

    ok, wit = True, ""
    try:
        ws = m.weights()
        for name, maps, allowed in (("space", m.spaces, ws), ("X", m.x_maps, ws[:-1]),
                                    ("Y", m.y_maps, ws[1:]), ("rational structure", m.rat, ws)):
            stray = [w for w in maps if w not in allowed]
            if stray:
                raise ValueError(f"{name} stored at weight {min(stray)}, outside the window")
        for name, maps, sources, step, in_tail in (("X", m.x_maps, ws[:-1], 2, m.x_in_tail),
                                                   ("Y", m.y_maps, ws[1:], -2, m.y_in_tail)):
            for w in sources:
                f = maps.get(w)
                if f is None and not in_tail(w):
                    raise ValueError(f"{name}[{w}] missing")
                if f is not None and (f.rows, f.cols) != (m.dim(w + step), m.dim(w)):
                    raise ValueError(f"{name}[{w}] has wrong shape")
        for w in ws:
            r = m.rat.get(w)
            if r is None or (r.rows, r.cols) != (m.dim(-w), m.dim(w)):
                raise ValueError(f"rational structure at {w} missing or misshapen")
        for name, phi in (("phi_+", m.phi_plus), ("phi_-", m.phi_minus)):
            if phi.rows != phi.cols:
                raise ValueError(f"tail Casimir {name} is not square")
    except ValueError as exc:
        ok, wit = False, str(exc)
    checks.append(("shape", ok, wit))
    if not ok:
        return ValidationReport(tuple(checks))

    ok, wit = True, ""
    dplus = m.phi_plus.rows
    dminus = m.phi_minus.rows
    for w in m.weights():
        if w >= ell + 1 and m.dim(w) != dplus:
            ok, wit = False, f"tail dimension jump at weight {w}"
        if w <= -(ell + 1) and m.dim(w) != dminus:
            ok, wit = False, f"tail dimension jump at weight {w}"
    lam = Fraction(ell * ell)
    for phi in (m.phi_plus, m.phi_minus):
        dev = phi - QuadMatrix.identity(phi.rows, m.d).scale(lam)
        if nilpotency_exponent(dev) is None:
            ok, wit = False, "tail Casimir is not lambda + nilpotent"
    checks.append(("tail-dims", ok, wit))
    if not ok:
        return ValidationReport(tuple(checks))

    ok, wit = True, ""
    for w in m.weights():
        stored = m.x_maps.get(w)
        if stored is not None and m.x_in_tail(w) and stored != m._tail_x(w):
            ok, wit = False, f"X[{w}] disagrees with the tail closed form"
        stored = m.y_maps.get(w)
        if stored is not None and m.y_in_tail(w) and stored != m._tail_y(w):
            ok, wit = False, f"Y[{w}] disagrees with the tail closed form"
        if abs(w) > ell + 1 and m.rat[w] != m.rat[ell + 1 if w > 0 else -(ell + 1)]:
            ok, wit = False, f"rational structure at {w} is not constant along the tail"
    checks.append(("tail-consistency", ok, wit))
    if not ok:
        return ValidationReport(tuple(checks))

    core = [w for w in m.weights() if abs(w) <= ell + 1]
    ok, wit = True, ""
    for w in core:
        lhs = (m.x_at(w - 2) * m.y_at(w) - m.y_at(w + 2) * m.x_at(w)).scale(4)
        if lhs != QuadMatrix.identity(m.dim(w), m.d).scale(Fraction(4 * w)):
            ok, wit = False, f"4[X,Y] != 4w at weight {w}"
            break
    checks.append(("bracket", ok, wit))

    ok, wit = True, ""
    for w in core:
        dev = casimir_matrix(m, w) - QuadMatrix.identity(m.dim(w), m.d).scale(lam)
        if nilpotency_exponent(dev) is None:
            ok, wit = False, f"(C - ell^2) not nilpotent at weight {w}"
            break
    checks.append(("casimir-nilpotent", ok, wit))

    ok, wit = True, ""
    for w in core:
        if not (m.rat[-w] * m.rat[w].conj()).is_identity():
            ok, wit = False, f"rational cocycle fails at weight {w}"
            break
    checks.append(("rational-cocycle", ok, wit))

    ok, wit = True, ""
    for w in core:
        lhs = m.rat[w + 2] * m.x_at(w).conj()
        rhs = m.y_at(-w) * m.rat[w]
        if lhs != rhs:
            ok, wit = False, f"conjugation does not swap X and Y at weight {w}"
            break
    checks.append(("conjugation-swap", ok, wit))

    ok, wit = True, ""
    r = m.rat[ell + 1]
    if m.phi_minus * r != r * m.phi_plus.conj():
        ok, wit = False, "tail Casimirs are not conjugate under the rational structure"
    checks.append(("tail-conjugation", ok, wit))
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------- inputs

def in_core(section, w, ell):
    """Whether the weight-w entry of a dumped section lies on the core."""
    if section == "X":
        return -(ell + 1) <= w <= ell - 1
    if section == "Y":
        return -(ell - 1) <= w <= ell + 1
    return abs(w) <= ell + 1


def mutant(doc, rng, kind):
    """doc with one entry of one matrix of the given class changed, or None."""
    ell = doc["ell"]
    if kind == "phi":
        slots = [("tails", "plus"), ("tails", "minus")]
    else:
        where, what = kind.split("-")
        sections = ("X", "Y") if what == "map" else ("rational",)
        slots = [(sec, key) for sec in sections for key in doc[sec]
                 if in_core(sec, int(key), ell) == (where == "core")]
    slots = [slot for slot in slots if doc[slot[0]][slot[1]]["entries"]]
    if not slots:
        return None
    sec, key = rng.choice(slots)
    out = copy.deepcopy(doc)
    entries = out[sec][key]["entries"]
    k = rng.randrange(len(entries))
    a_num, a_den, b_num, b_den = entries[k]
    # add 1 or sqrt(d) to the entry
    entries[k] = [a_num + a_den, a_den, b_num, b_den] if rng.random() < 0.5 else \
        [a_num, a_den, b_num + b_den, b_den]
    return out


def filled(m):
    """m with every ladder map of its window stored, the tail maps from x_at / y_at."""
    weights = m.weights()
    return HCModule(m.ell, m.epsilon, m.window, m.spaces,
                    {w: m.x_at(w) for w in weights[:-1]}, {w: m.y_at(w) for w in weights[1:]},
                    m.rat, m.phi_plus, m.phi_minus, m.d)


def block_modules(d, rng):
    """inverse_E modules with their tail maps stored (inverse_E stores the
    core only), so that the reference validator and the tail-map mutants
    apply to them."""
    for ell in range(4):
        make = random_cyclic_rep if ell == 0 else random_gelfand_rep
        for tail_weights in (1, 2):
            yield filled(inverse_E(make(rng, max_dim=2, d=d), ell, tail_weights))


def fixtures():
    for kind in KINDS:
        for ell in range(4):
            if kind != "discrete" and ell == 0:
                continue
            yield build_example(kind, ell, tail_weights=1)


def strip_tails(doc):
    """doc with every ladder map that a tail closed form determines removed."""
    out = copy.deepcopy(doc)
    for sec in ("X", "Y"):
        out[sec] = {k: v for k, v in doc[sec].items() if in_core(sec, int(k), doc["ell"])}
    return out


# ---------------------------------------------------------------- tests

def assert_parity(modules, rng):
    failed = Counter()
    for m in modules:
        doc = dump_hc(m)
        assert validate_hc(m).ok and ref_validate_hc(m).ok
        for kind in MUTATIONS:
            bad = mutant(doc, rng, kind)
            if bad is None:
                continue
            loaded = load_hc(bad)
            verdict = validate_hc(loaded).ok
            assert verdict == ref_validate_hc(loaded).ok, (kind, bad)
            failed[kind] += not verdict
    return failed


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_validate_matches_reference_on_mutants(d):
    rng = random.Random(FIELD_TAGS.index(d))
    failed = assert_parity(block_modules(d, rng), rng)
    assert set(failed) == set(MUTATIONS) and all(failed.values())


def test_validate_matches_reference_on_fixtures():
    rng = random.Random(99)
    failed = assert_parity(fixtures(), rng)
    assert all(failed[kind] for kind in ("core-map", "core-rat", "phi"))


def test_tail_rat_mutant_fails_tail_consistency():
    doc = dump_hc(build_example("principal", 2, tail_weights=2))
    doc["rational"]["5"]["entries"][0] = [2, 1, 0, 1]
    report = validate_hc(load_hc(doc))
    assert [name for name, _ in report.failures()] == ["tail-consistency"]


CORE_MUTATIONS = ("core-map", "core-rat", "phi")


def core_modules(d, rng):
    """inverse_E modules as inverse_E returns them, with the core maps only."""
    for ell in range(5):
        make = random_cyclic_rep if ell == 0 else random_gelfand_rep
        for tail_weights in (1, 2, 3):
            for _ in range(2):
                yield inverse_E(make(rng, max_dim=2, d=d), ell, tail_weights)


def failed_at_edges(report, ell):
    """(name, "+" or "-" if its witness names weight +-(ell + 1), else None)
    for each failed check of report."""
    for name, ok, wit in report.checks:
        if not ok:
            last = wit.rsplit(" ", 1)[-1]
            w = int(last) if last.lstrip("-").isdigit() else None
            yield name, {ell + 1: "+", -(ell + 1): "-"}.get(w)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_validate_report_matches_rooted_reference(d):
    rng = random.Random(40 + FIELD_TAGS.index(d))
    failed = Counter()
    for m in core_modules(d, rng):
        assert validate_hc(m).checks == ref_rooted_validate_hc(m).checks
        doc = dump_hc(m)
        for kind in CORE_MUTATIONS:
            for _ in range(3):
                bad = mutant(doc, rng, kind)
                if bad is None:
                    continue
                report = validate_hc(load_hc(bad))
                assert report.checks == ref_rooted_validate_hc(load_hc(bad)).checks, (kind, bad)
                failed.update(failed_at_edges(report, m.ell))
    # the weights +-(ell + 1) are where the two validators differ, so they must
    # be hit (C = phi_- at -(ell + 1), where only tail-dims can fail)
    assert all(failed[name, "+"] for name in ("bracket", "casimir-nilpotent", "conjugation-swap"))
    assert all(failed[name, "-"] for name in ("bracket", "conjugation-swap"))
    assert failed["tail-conjugation", None]


# principal ell = 2 has window 11 and odd weights: X at 0 has the wrong parity,
# X at 11 and Y at -11 leave the window, and 101, 77 and 200 lie outside it
STRAYS = [("X", "0"), ("X", "11"), ("X", "101"), ("Y", "-11"), ("rational", "77"),
          ("spaces", "200")]


@pytest.mark.parametrize("section, key", STRAYS)
def test_stray_weight_fails_shape(section, key, tmp_path, capsys):
    doc = dump_hc(build_example("principal", 2))
    doc[section][key] = 1 if section == "spaces" else doc[section]["1"]
    m = load_hc(doc)
    assert [name for name, _ in validate_hc(m).failures()] == ["shape"]
    if (section, key) == ("X", "0"):
        with pytest.raises(OutOfWindow):
            m.x_at(0)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["hc", "validate", "--in", str(path)]) == 1
    assert "FAIL shape" in capsys.readouterr().out


def test_validate_work_is_window_independent(monkeypatch):
    """validate_hc multiplies matrices on the core weights and phi_+- only,
    so a wider window costs no extra products."""
    products = Counter()
    mul = QuadMatrix.__mul__

    def counted(a, b):
        products[window] += 1
        return mul(a, b)

    v = random_gelfand_rep(random.Random(4), max_dim=2)
    modules = [inverse_E(v, 2, tail_weights) for tail_weights in (1, 8)]
    monkeypatch.setattr(QuadMatrix, "__mul__", counted)
    for m in modules:
        window = m.window
        assert validate_hc(m).ok
    # 3 + 3 ladder products, 4 for the cocycle, 2 for phi_- R = R conj(phi_+)
    # and 2 a weight for the swap below ell + 1; this module's Casimir
    # deviations are zero, so nilpotency_exponent multiplies nothing
    assert products[modules[0].window] == products[modules[1].window] == 18


@pytest.mark.parametrize("d", FIELD_TAGS[:3])
def test_module_without_tail_maps(d):
    rng = random.Random(20 + FIELD_TAGS.index(d))
    for m in list(block_modules(d, rng)) + list(fixtures()):
        doc = dump_hc(m)
        core = load_hc(strip_tails(doc))
        assert len(core.x_maps) < len(m.x_maps)
        assert validate_hc(core).ok
        assert dump_rep(functor_E(core).rep) == dump_rep(functor_E(m).rep)
        assert all(core.x_at(w) == m.x_maps[w] for w in m.x_maps)
        assert all(core.y_at(w) == m.y_maps[w] for w in m.y_maps)


def test_tail_dims_reports_its_last_failure():
    """tail-dims reports its last failure: of two dimension jumps the one at
    the higher weight, and a tail Casimir that is not ell^2 + nilpotent over
    any jump.  The validator stops after it."""
    m = build_example("principal", 2)
    n = m.dim(7) + 1
    spaces = {**m.spaces, 7: n, -7: n}
    rat = {**m.rat, 7: QuadMatrix.identity(n, m.d), -7: QuadMatrix.identity(n, m.d)}
    core_x = {w: f for w, f in m.x_maps.items() if not m.x_in_tail(w)}
    core_y = {w: f for w, f in m.y_maps.items() if not m.y_in_tail(w)}
    jumps = HCModule(m.ell, m.epsilon, m.window, spaces, core_x, core_y, rat,
                     m.phi_plus, m.phi_minus, m.d)
    assert validate_hc(jumps).checks == (
        ("shape", True, ""), ("tail-dims", False, "tail dimension jump at weight 7"))
    phi = QuadMatrix.identity(m.phi_plus.rows, m.d).scale(5)
    both = HCModule(m.ell, m.epsilon, m.window, spaces, core_x, core_y, rat,
                    phi, m.phi_minus, m.d)
    assert validate_hc(both).checks == (
        ("shape", True, ""), ("tail-dims", False, "tail Casimir is not lambda + nilpotent"))
