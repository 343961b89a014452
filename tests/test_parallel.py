"""The shared executor pool of :mod:`repro.parallel`."""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import ExecutorPool


def _square_or_die(x):
    if x < 0:
        os._exit(7)  # the worker process dies without a word
    return x * x


class TestBrokenPool:
    def test_next_map_after_a_worker_death_starts_a_fresh_pool(self):
        with ExecutorPool(n_jobs=2, executor="process") as pool:
            with pytest.raises(BrokenProcessPool):
                pool.map(_square_or_die, [1, -1, 2, 3])
            assert pool.map(_square_or_die, range(4)) == [0, 1, 4, 9]
            assert pool.map(_square_or_die, range(5, 7)) == [25, 36]
