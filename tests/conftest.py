"""Test-suite setup.

certificate.py is a helper module, not a test module, so pytest would not
rewrite its asserts, and under python -O they would check nothing.
Registering it for rewriting keeps them checked under -O as well.
"""

import pytest

pytest.register_assert_rewrite("certificate")
