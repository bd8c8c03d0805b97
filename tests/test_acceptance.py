"""Acceptance suite: one test per verification criterion, full problem sizes.

Each test runs the corresponding suite at its pinned parameters, prints a
single PASS/FAIL line with the measured statistic, its tolerance, and the
wall time, and asserts the criterion (including its runtime budget).  The
walk-conjecture criterion is exploratory: its result is printed and never
gates.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
the whole module takes a few minutes.

Each test also pins the suite's statistic at the default seed, bit for bit,
so that any change to a suite's output fails here; a deliberate change
records the new value in GOLDEN_STATISTIC.
"""
import threading
import time

import pytest

from critwin import verify
from critwin.verify import run_suite

_REPORTS = {}

GOLDEN_STATISTIC = {
    "kernel": 1.8442712634847425e-14,
    "identities": 0.0,
    "moments": -0.08131868131233494,
    "zlimit": 0.034999999999999976,
    "lamperti": 0.017199999999999993,
    "cousin": 0.031075725987017633,
    "klimit": 0.017124560586773474,
    "deterministic": 1.283417816466681e-12,
    "selfsim": 0.018007202881152484,
    "components": 1.0,
    "conjecture": 0.1701814574924774,
}


def _run(name, budget_s, **kwargs):
    t0 = time.perf_counter()
    report = run_suite(name, **kwargs)
    elapsed = time.perf_counter() - t0
    _REPORTS[name] = (report, elapsed)
    return report, elapsed


def _line(criterion, report, elapsed, passed):
    status = "PASS" if passed else "FAIL"
    print(
        f"{status} {criterion}: statistic={report.statistic:.6g} "
        f"tolerance={report.tolerance} time={elapsed:.1f}s"
    )


def test_criterion_01_kernel_equals_graph_enumeration():
    report, elapsed = _run("kernel", 30)
    _line("criterion-01 kernel-vs-enumeration", report, elapsed, report.passed)
    assert report.statistic <= 1e-10
    assert elapsed < 30
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["kernel"]


def test_criterion_02_combinatorial_identities():
    report, elapsed = _run("identities", 10)
    _line("criterion-02 identities", report, elapsed, report.passed)
    assert report.statistic == 0.0
    assert elapsed < 10
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["identities"]


def test_criterion_03_moment_bound_rates():
    report, elapsed = _run("moments", 60)
    det = report.details
    ok = (
        det["mu_dev_slope"] <= -0.25
        and det["sigma2_dev_slope"] <= -0.25
        and abs(det["kappa_abs_slope"] - 2.0 / 3.0) <= 0.15
    )
    _line("criterion-03 moment-rates", report, elapsed, ok)
    print(
        f"      slopes: mu={det['mu_dev_slope']:.4f} "
        f"sigma2={det['sigma2_dev_slope']:.4f} kappa={det['kappa_abs_slope']:.4f}"
    )
    assert ok
    assert elapsed < 60
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["moments"]


@pytest.fixture(scope="module")
def zlimit_report():
    return _run("zlimit", 300)


def test_criterion_04_height_profile_limit(zlimit_report):
    report, elapsed = zlimit_report
    ok = report.statistic <= 0.06
    _line("criterion-04 height-profile-KS", report, elapsed, ok)
    assert ok
    assert elapsed < 300
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["zlimit"]


def test_criterion_05_lamperti_equivalence():
    report, elapsed = _run("lamperti", 300)
    _line("criterion-05 lamperti-KS", report, elapsed, report.passed)
    assert report.statistic <= 0.05
    assert elapsed < 300
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["lamperti"]


def test_criterion_06_total_mass_vs_hitting_time(zlimit_report):
    report, elapsed = zlimit_report
    det = report.details
    ok = det["mean_delta"] <= det["delta_limit_3se"]
    print(
        f"{'PASS' if ok else 'FAIL'} criterion-06 total-mass-vs-hitting: "
        f"delta={det['mean_delta']:.5f} limit(3se)={det['delta_limit_3se']:.5f} "
        f"time shared with criterion 4"
    )
    assert ok
    assert elapsed < 300


def test_criterion_07_deterministic_cousin_limit():
    report, elapsed = _run("cousin", 600)
    _line("criterion-07 cousin-limit", report, elapsed, report.passed)
    assert report.statistic <= 0.05
    assert elapsed < 600
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["cousin"]


def test_criterion_08_cubic_cumulative_limit():
    report, elapsed = _run("klimit", 600)
    _line("criterion-08 cumulative-cubic", report, elapsed, report.passed)
    assert report.statistic <= 0.05
    assert elapsed < 600
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["klimit"]


def test_criterion_09_closed_form_curve():
    report, elapsed = _run("deterministic", 5)
    _line("criterion-09 closed-form-c", report, elapsed, report.passed)
    assert report.statistic <= 1e-8
    assert report.details["tanh_case_error"] <= 1e-12
    assert elapsed < 5
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["deterministic"]


def test_criterion_10_self_similarity():
    report, elapsed = _run("selfsim", 300)
    _line("criterion-10 self-similarity", report, elapsed, report.passed)
    assert report.statistic <= 0.05
    # first-moment view of the same experiment
    det = report.details
    assert abs(det["mean_delta"]) <= 3 * det["mean_delta_se"]
    assert elapsed < 300
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["selfsim"]


@pytest.fixture(scope="module")
def components_report():
    return _run("components", 600)


def test_criterion_11_component_mass_bound(components_report):
    report, elapsed = components_report
    _line("criterion-11 component-mass", report, elapsed, report.passed)
    assert report.statistic >= 0.95
    assert elapsed < 600
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["components"]


def test_criterion_11_rescaled_mass_is_near_t0(components_report):
    # on the drifting-window C scale 1/(n eps) the total infected count tends
    # to t0 = 1 at x = 1/2, lam = 0; a wrong scale puts the mean far away
    report, _ = components_report
    assert abs(report.details["rescaled_mean"] - 1.0) <= 0.05


def test_criterion_12_walk_conjecture_exploratory():
    report, elapsed = _run("conjecture", 6)
    within = report.details["within_tolerance"]
    print(
        f"REPORT criterion-12 walk-conjecture (non-gating): "
        f"sup={report.statistic:.4f} reporting-threshold=0.1 "
        f"within={within} time={elapsed:.1f}s"
    )
    # exploratory: never gates, but its values are pinned like every statistic
    assert report.passed
    assert report.statistic == GOLDEN_STATISTIC["conjecture"]
    # the same mean path against the first-order curve
    # lam t - t**2/2 - eps (lam t**2 - t**3/6)
    assert report.details["first_order_sup"] == 0.011988751397058461
    assert report.details["components_opened"] == 27619
    assert elapsed < 6


def test_conjecture_makes_its_streams_on_the_calling_thread(monkeypatch):
    """The walks run on two threads, but every stream is made by the caller,
    and no thread outlives the suite."""
    made_on, walked_on = [], set()
    make_stream, walk_chain = verify.make_stream, verify.walk_chain

    def recording_make_stream(*args):
        made_on.append(threading.get_ident())
        return make_stream(*args)

    def recording_walk_chain(*args):
        walked_on.add(threading.current_thread())
        return walk_chain(*args)

    monkeypatch.setattr(verify, "make_stream", recording_make_stream)
    monkeypatch.setattr(verify, "walk_chain", recording_walk_chain)
    before = threading.active_count()
    report = run_suite("conjecture")
    assert not any(t.is_alive() for t in walked_on)
    assert threading.active_count() == before
    assert made_on == [threading.get_ident()] * report.N
    assert 1 <= len(walked_on) <= 2 and threading.current_thread() not in walked_on
    assert report.statistic == GOLDEN_STATISTIC["conjecture"]
