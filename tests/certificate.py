"""Comparison of two HC modules as finite certificates."""


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
