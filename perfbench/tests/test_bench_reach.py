"""The reach ladder stops at a cap refusal and at the budget."""

import sys

import reach
from conftest import ROOT


def test_climb_stops_at_the_first_rung_not_reached():
    for stop in ("refused", "over-budget", "wrong"):
        statuses = iter(["reached", "reached", stop, "reached"])
        reached, log = reach.climb(lambda n: next(statuses))
        assert reached == 4**6
        assert log == [(5, "reached"), (6, "reached"), (7, stop)]
    reached, log = reach.climb(lambda n: "refused")
    assert (reached, log) == (0, [(5, "refused")])


def test_rung_over_its_time_budget_is_killed():
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    assert reach.run_rung(sleeper, cwd=ROOT, seconds=0.5) == "over-budget"


def test_rung_over_its_memory_budget_is_not_reached():
    grab = [sys.executable, "-c", "x = bytearray(1 << 30)"]
    assert reach.run_rung(grab, cwd=ROOT, limit=256 * 1024**2) != "reached"
    assert reach.run_rung(grab, cwd=ROOT, limit=4 * 1024**3) == "reached"


def test_cap_refusal_in_rung_mode_stops_the_ladder():
    # check_characterization at n=7, k=3 needs 2.7e8 pairs against the 1e8 cap.
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "check-tables",
            "--seed", "0", "--rung"]
    reached, log = reach.climb(lambda n: reach.run_rung(argv + [str(n)], cwd=ROOT), ns=(5, 7, 8))
    assert log == [(5, "reached"), (7, "refused")]
    assert reached == 4**5
