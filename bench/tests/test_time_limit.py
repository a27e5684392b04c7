import json
import os
import signal
import time

import pytest

import run


def _slow_main(argv):
    """Stands in for the CLI: spins forever on a Python loop."""
    while True:
        pass


def _sleepy_main(argv):
    time.sleep(30)


def _quick_main(argv):
    out = argv[argv.index("--out") + 1]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump({"records": [{"passed": True}, {"passed": True}]}, fh)
    return 0


@pytest.mark.parametrize("main", [_slow_main, _sleepy_main])
def test_an_experiment_over_its_limit_is_stopped_and_counted(main, tmp_path):
    start = time.perf_counter()
    result = run.run_experiment("fake", [], 1, tmp_path / "x", 0.3, main=main)
    assert time.perf_counter() - start < 5
    assert result.status == "timeout"
    assert (result.attempted, result.failed) == (1, 1)


def test_the_pass_continues_after_a_timeout(tmp_path, monkeypatch):
    monkeypatch.setitem(run.TIME_LIMITS, "slow", 0.3)
    calls = []

    def main(argv):
        calls.append(argv[0])
        return (_slow_main if argv[0] == "slow" else _quick_main)(argv)

    result = run.run_pass([("slow", []), ("quick", [])], 1, tmp_path,
                          time.perf_counter() + 60, main=main)
    assert calls == ["slow", "quick"]
    assert [e.status for e in result.experiments] == ["timeout", "ok"]
    assert sum(e.attempted for e in result.experiments) == 3
    assert sum(e.failed for e in result.experiments) == 1


def test_a_spent_run_deadline_stops_the_experiment_before_it_starts(tmp_path):
    result = run.run_pass([("quick", [])], 1, tmp_path, time.perf_counter() - 1,
                          main=_quick_main)
    assert result.experiments[0].status == "timeout"


def test_the_previous_alarm_handler_comes_back():
    previous = signal.getsignal(signal.SIGALRM)
    with run.time_limit(5):
        pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
