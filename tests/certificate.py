"""Comparison of two HC modules as finite certificates, and of their Hom
spaces with those of their E-images."""

from fractions import Fraction

from rquiver.exact import QuadMatrix, rank
from rquiver.hc import functor_E, functor_E_map, hc_hom_space
from rquiver.reps import hom_space, is_morphism


def assert_same_certificate(a, b):
    """a and b are the same module, whichever ladder maps each one stores.

    Block, window, field, spaces, rational structure and tail Casimirs must
    be equal, and so must X and Y at every window weight, read through
    x_at / y_at (stored, or derived from the tails).  That is the
    information a compare of the two full-window dumps carries.
    """
    assert (a.ell, a.epsilon, a.window, a.d) == (b.ell, b.epsilon, b.window, b.d)
    assert a.spaces == b.spaces
    assert a.rat == b.rat
    assert (a.phi_plus, a.phi_minus) == (b.phi_plus, b.phi_minus)
    weights = a.weights()
    for w in weights[:-1]:
        assert a.x_at(w) == b.x_at(w), f"X differs at weight {w}"
    for w in weights[1:]:
        assert a.y_at(w) == b.y_at(w), f"Y differs at weight {w}"


def assert_E_bijective_on_hom(m1, m2):
    """E maps Hom(m1, m2) bijectively onto Hom(E(m1), E(m2)), and return
    its dimension over K = Q.

    Each image of a hc_hom_space basis element must be a morphism of the
    E-images; the images must be K-linearly independent, that is, the rows
    of their rational coordinates (read off coefficients()) have full rank;
    and the two Hom spaces must have one dimension.
    """
    r1, r2 = functor_E(m1).rep, functor_E(m2).rep
    dim_k, _, basis = hc_hom_space(m1, m2)
    images = [functor_E_map(psi, m1.ell) for psi in basis]
    for f in images:
        assert is_morphism(r1, r2, f)
    rows = [[Fraction(num, den) for mat in f for entry in mat.coefficients()
             for num, den in (entry[:2], entry[2:])] for f in images]
    assert rank(QuadMatrix.from_rows(rows)) == dim_k
    assert hom_space(r1, r2).dim_K == dim_k
    return dim_k
