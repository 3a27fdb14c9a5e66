import os

import pytest

from affinegsb.affine_basis import g_families
from affinegsb.presentations import affine_a, finite_a
from affinegsb.rewriting import complete


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps a finished child, pid 0 if it runs
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else 'unreaped'})")


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs is_gs_basis and the drain may use; returns the pids os.fork returned."""
    forks = []

    def fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    real_fork = getattr(os, "fork", None)
    monkeypatch.setattr(os, "fork", fork, raising=False)

    def use(count):
        forks.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        return forks
    return use


@pytest.fixture(scope="session")
def affine2_basis():
    return complete(affine_a(2).to_rules())


@pytest.fixture(scope="session")
def affine3_basis():
    return complete(affine_a(3).to_rules())


@pytest.fixture(scope="session")
def finite3_basis():
    return complete(finite_a(3).to_rules())


@pytest.fixture(scope="session")
def explicit2():
    return g_families(2)


@pytest.fixture(scope="session")
def explicit3():
    return g_families(3)
