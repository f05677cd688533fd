"""The reach ladder: the largest (k+1)^n whose heaviest job finishes within
a fixed time and memory budget.

Each rung runs in a child process under its own address-space limit.  The
ladder climbs n upwards and stops at the first rung that is refused by a
cap, runs out of memory or time, or gives a wrong answer.
"""

from __future__ import annotations

import subprocess
import sys

LADDER_K = 3
LADDER_NS = range(5, 11)
BUDGET_S = 10.0
BUDGET_BYTES = 2 * 1024**3

#: Exit codes of a rung child.
REACHED, WRONG, REFUSED = 0, 1, 3

# Sets the address-space limit, then replaces itself with the rung command.
_LAUNCHER = (
    "import os, resource, sys; limit = int(sys.argv[1]); "
    "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
    "os.execv(sys.argv[2], sys.argv[2:])"
)


def run_rung(argv: list, cwd, seconds: float = BUDGET_S, limit: int = BUDGET_BYTES,
             refused: int = REFUSED) -> str:
    """Run one rung; returns "reached", "refused", "over-budget" or "wrong"."""
    child = subprocess.Popen(
        [sys.executable, "-c", _LAUNCHER, str(limit), *argv],
        cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        code = child.wait(timeout=seconds)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        return "over-budget"
    finally:
        if child.returncode is None:
            child.kill()
            child.wait()
    if code == REACHED:
        return "reached"
    return "refused" if code == refused else "wrong"


def climb(attempt, ns=LADDER_NS, k: int = LADDER_K) -> tuple[int, list]:
    """Climb the ladder with ``attempt(n) -> status``; returns the largest
    state count reached (0 if none) and the (n, status) log."""
    reached, log = 0, []
    for n in ns:
        status = attempt(n)
        log.append((n, status))
        if status != "reached":
            break
        reached = (k + 1) ** n
    return reached, log
