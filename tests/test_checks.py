from lbstates import checks
from lbstates.checks import ALL_CHECKS, run_checks


def test_every_registered_check_passes():
    results = run_checks()
    failing = [r for r in results if not r.ok]
    assert not failing, "failing checks: " + ", ".join(
        f"{r.name} (value={r.value:.3e}, tol={r.tol:.1e})" for r in failing
    )
    assert len(results) == len(ALL_CHECKS)


def test_name_filter():
    results = run_checks(["fock."])
    assert results and all("fock." in r.name for r in results)


def test_selection_runs_only_the_selected_checks(monkeypatch):
    called = []

    def spy(fn):
        # the shape of a timing wrapper: it hides the entry behind __wrapped__
        def wrapper():
            res = fn()
            called.append(res.name)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    monkeypatch.setattr(checks, "ALL_CHECKS", [spy(fn) for fn in ALL_CHECKS])
    results = run_checks(["pt."])
    assert called == [r.name for r in results]
    assert len(called) == 9 and all(name.startswith("pt.") for name in called)
