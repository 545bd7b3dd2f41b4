"""The worker pool: part order, exceptions, nesting and the worker count."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from samplets import h2, transform, workers
from samplets.basis import build_samplet_basis
from samplets.cluster_tree import PointCloud
from samplets.errors import InvalidInput
from samplets.h2 import assemble_compressed_kernel
from samplets.kernels import KernelConfig

TIMEOUT = 60.0


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the process may run on, as the helper sees them."""
    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return set_cpus


def finishes(fn) -> None:
    """Run fn on a thread and require it to finish within TIMEOUT."""
    errors = []

    def target():
        try:
            fn()
        except BaseException as exc:  # reported below, on the test's thread
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT)
    assert not thread.is_alive(), f"did not finish within {TIMEOUT} s"
    if errors:
        raise errors[0]


def test_the_worker_count_follows_the_affinity(cpus, monkeypatch):
    for n in (1, 3):
        cpus(n)
        assert workers.count() == n
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
    assert workers.count() == (os.cpu_count() or 1)


@pytest.mark.parametrize("n_cpus", [2, 3, 8])
def test_results_come_back_in_part_order(cpus, n_cpus):
    cpus(n_cpus)
    parts = list(range(23))
    assert workers.map_parts(lambda k: k * k, parts) == [k * k for k in parts]


def test_a_later_part_raises_its_own_exception(cpus):
    cpus(2)

    def fail_late(k):
        if k == 6:
            raise KeyError(k)
        return k

    with pytest.raises(KeyError):
        workers.map_parts(fail_late, list(range(8)))


def test_the_first_exception_in_part_order_wins(cpus):
    # part 6 runs on the pool and raises first in time; part 2 runs on the
    # caller and raises later, but comes first in part order
    cpus(2)

    def fail_twice(k):
        if k == 2:
            time.sleep(0.2)
            raise ValueError(k)
        if k == 6:
            raise KeyError(k)
        return k

    with pytest.raises(ValueError):
        workers.map_parts(fail_twice, list(range(8)))


def test_a_call_from_a_worker_runs_inline(cpus, monkeypatch):
    # a pool thread that handed work to the pool could wait on itself
    cpus(2)
    shared_pool, asked, results = workers._shared_pool, [], []

    def recording_pool():
        asked.append(threading.current_thread())
        return shared_pool()

    def outer(k):
        time.sleep(0.05)  # so that the pool starts its run before the caller ends its own
        inner = workers.map_parts(lambda j: threading.current_thread(), list(range(4)))
        return threading.current_thread(), set(inner)

    monkeypatch.setattr(workers, "_shared_pool", recording_pool)
    finishes(lambda: results.extend(workers.map_parts(outer, list(range(4)))))
    on_pool = [(thread, inner) for thread, inner in results if thread.name.startswith("samplets")]
    assert len(results) == 4 and on_pool, "no part ran on the pool"
    for thread, inner in on_pool:
        assert thread not in asked and inner == {thread}


def test_one_worker_runs_everything_on_the_caller(cpus, monkeypatch):
    cpus(1)

    def no_pool():
        raise AssertionError("one worker handed work to the pool")

    monkeypatch.setattr(workers, "_shared_pool", no_pool)
    caller = threading.get_ident()
    assert set(workers.map_parts(lambda k: threading.get_ident(), list(range(6)))) == {caller}


def test_an_assembly_subtree_raises_the_first_error_in_son_order(cpus, monkeypatch):
    # every batch fails; the one holding the first columns must be reported
    cpus(2)
    basis = build_samplet_basis(
        PointCloud(np.random.default_rng(3).uniform(-1, 1, size=(400, 2))), q=1)
    monkeypatch.setattr(h2, "_BATCH_POINTS", 64)
    tree, run = basis.tree, h2._Assembly.run

    def failing(self, col, demand):
        if tree.is_leaf[col] or tree.size[col] <= 64:  # a batch
            time.sleep(0.2 if tree.begin[col] == 0 else 0.0)
            raise InvalidInput(f"batch at position {tree.begin[col]}")
        return run(self, col, demand)

    monkeypatch.setattr(h2._Assembly, "run", failing)

    def assemble():
        with pytest.raises(InvalidInput, match="batch at position 0$"):
            assemble_compressed_kernel(basis, KernelConfig("matern32", length_scale=0.5),
                                       eta=1.25, p=2)

    finishes(assemble)


def test_more_workers_than_cores_give_the_same_bits(cpus, monkeypatch):
    # slices and subtrees write disjoint rows and merge in part order; a
    # lost or reordered write would change the bits
    rng = np.random.default_rng(5)
    basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(2048, 2))), q=2)
    data = rng.normal(size=(2048, 16))
    cfg = KernelConfig("matern32", length_scale=0.5)
    monkeypatch.setattr(h2, "_BATCH_POINTS", 128)

    def outputs():
        forward = transform.forward_transform_matrix(basis, data)
        k = assemble_compressed_kernel(basis, cfg, eta=1.25, p=2).matrix
        return forward, transform.inverse_transform_matrix(basis, forward), k.values

    cpus(1)
    alone = outputs()
    cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            finishes(lambda: [np.testing.assert_array_equal(got, want)
                              for got, want in zip(outputs(), alone)])
    finally:
        sys.setswitchinterval(interval)
