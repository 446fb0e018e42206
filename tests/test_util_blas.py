"""The OpenBLAS thread scope (repro.util.blas)."""

import pytest

from repro.util import blas

FUNCTIONS = blas._thread_count_functions()
pytestmark = pytest.mark.skipif(
    FUNCTIONS is None, reason="no OpenBLAS thread-count entry point"
)


def test_single_thread_restores_the_callers_count_on_raise():
    get, _ = FUNCTIONS
    before = get()
    with pytest.raises(KeyError):
        with blas.single_thread():
            assert get() == 1
            raise KeyError("body")
    assert get() == before


def test_overlapping_scopes_restore_once_the_last_leaves():
    """Two serves in two threads overlap their scopes in any order: the
    first scope to leave must not restore the count under the other."""
    get, set_ = FUNCTIONS
    before = get()
    set_(2)
    try:
        first, second = blas.single_thread(), blas.single_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert get() == 1
        second.__exit__(None, None, None)
        assert get() == 2
    finally:
        set_(before)
