import functools

import pytest

from walgebra.derivation import Derivation


@pytest.fixture(scope="session")
def derivation():
    """Derivation(p), built once per p for the whole session.

    Its engine memos make a repeated stage or report a lookup, so the p = 5
    derivation is paid for once rather than by every test that checks it.
    """
    return functools.cache(Derivation)
