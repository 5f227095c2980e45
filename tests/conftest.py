"""Fixtures shared by the tests of ``racd``."""

import numpy as np
import pytest


@pytest.fixture
def block_applies():
    """``block_applies(protocols, times, psi0)``: H(t) applied to a ``(B,
    dim)`` block of the one group ``protocols``, started at ``psi0``, at each
    of ``times``, as the RK4 loop applies it: i times the -i H psi of
    :meth:`racd.dynamics._Block.apply`.  One function per time."""
    from racd.dynamics import _Block, _Group

    def applies(protocols, times, psi0):
        block = _Block([_Group(list(protocols), np.asarray(psi0, dtype=complex), times)])
        assert len(block.weights) >= len(times)
        block.make(0, 0, len(times))

        def at(row):
            def apply(psi):
                out = block.apply(row, np.ascontiguousarray(psi).ravel(), np.empty(psi.size, dtype=complex))
                return 1j * out.reshape(psi.shape)

            return apply

        return [at(row) for row in range(len(times))]

    return applies
