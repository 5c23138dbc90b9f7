"""validate_hc on core and junction weights, against its full-window reference.

The reference below is the validator that checked all four per-weight
identities at every window weight and required every ladder map of the
window to be stored.  The current validator checks them on |w| <= ell + 1
only and derives the tail maps from phi_+-; on modules that store the whole
window both must give the same verdict, including on single-entry mutants of
a core map, a tail map, a core or tail block of the rational structure, and
a tail Casimir.
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
    calls = Counter()

    def counted(m, w):
        calls[m.window] += 1
        return casimir_matrix(m, w)

    v = random_gelfand_rep(random.Random(4), max_dim=2)
    modules = [inverse_E(v, 2, tail_weights) for tail_weights in (1, 8)]
    monkeypatch.setattr(hc, "casimir_matrix", counted)
    for m in modules:
        assert validate_hc(m).ok
    assert calls[modules[0].window] == calls[modules[1].window] == 4


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
