import pytest
from scipy.optimize import brentq

from flowcutter import CookieMap, FlowEngine, TimeSchedule

_CRITERION_LINES: list[str] = []


@pytest.fixture(scope="session")
def engine():
    return FlowEngine(tol=1e-13)


@pytest.fixture(scope="session")
def cmap():
    # shared certified map; grid 4096 matches the acceptance configuration
    return CookieMap.certified(grid_n=4096, tol=1e-13)


@pytest.fixture(scope="session")
def consts(cmap):
    return cmap.constants


@pytest.fixture(scope="session")
def plateau_rate(cmap):
    """Limiting ratio of the distortion increments, 1/(9 phi_T'(u*)).

    The per-depth maxima live on the alternating addresses 1010..., whose
    first return B_1 o phi_T o A_1 followed by 3x - 2 has the fixed point
    u* with phi_T(u*) = (u* + 2)/9 and the multiplier 9 phi_T'(u*); the
    increments C_{k+2} - C_k shrink by its inverse. Solved on the sweep's
    engine, without the sweep.
    """
    T = cmap.constants.T
    engine = cmap.engine
    u = brentq(lambda v: engine.flow_position(T, v) - (v + 2.0) / 9.0,
               0.2, 0.3, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return 1.0 / (9.0 * engine.flow_derivative(T, u))


class _SameSignSchedule(TimeSchedule):
    """The same-sign law with theta = 1/2, t_n = T / 4^k: only block_time
    is overridden."""

    def block_time(self, k):
        return self.T * 0.25 ** k


@pytest.fixture(scope="session")
def same_sign_schedule():
    """A TimeSchedule subclass on a second law, for tests that every time,
    sum and witness follows block_time."""
    return _SameSignSchedule


@pytest.fixture(scope="session")
def calibration_map():
    return CookieMap.calibration()


@pytest.fixture
def record_criterion():
    """Collect acceptance pass/fail lines for the terminal summary."""

    def _record(name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        _CRITERION_LINES.append(f"[{status}] {name}{suffix}")

    return _record


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
