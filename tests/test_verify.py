import sys

from parakahler import dlinalg, geometry, verify

POINT_QUERY_SUITES = ("gram-lemma", "null-product", "constant-angle-graphs")


def _count_calls(monkeypatch, fn, counts, label):
    """Wrap every binding of fn in the toolkit's modules with a call counter."""
    def counted(*args, **kwargs):
        counts[label] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "parakahler":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


def test_point_query_suites_check_stacks(monkeypatch):
    # Before these suites checked frame and node stacks in one call each,
    # the same wrappers counted det_D 5526 (gram-lemma 5100,
    # constant-angle-graphs 426) and jet 1915 (null-product 845,
    # constant-angle-graphs 1070).  Now: det_D 612 (600 of them the
    # Gram-Schmidt frames, one each) and jet 11.  A fifth of the old counts
    # leaves room for a few more single queries, not for a per-item loop.
    counts = {"det_D": 0, "jet": 0}
    _count_calls(monkeypatch, dlinalg.det_D, counts, "det_D")
    _count_calls(monkeypatch, geometry.jet, counts, "jet")
    for suite in POINT_QUERY_SUITES:
        assert all(check.passed for check in verify.run_suite(suite)), suite
    assert 0 < counts["det_D"] <= 5526 // 5
    assert 0 < counts["jet"] <= 1915 // 5
