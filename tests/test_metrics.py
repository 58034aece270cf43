import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sentiq.metrics import (
    MetricError,
    evaluate,
    mape,
    nse,
    r2,
    rmse,
    sample_variance,
    vaf,
    wmape,
)

# ---------------------------------------------------------------------------
# worked examples


def test_sample_variance():
    assert sample_variance([1, 2, 3, 4]) == pytest.approx(5 / 3, abs=1e-12)
    assert sample_variance([7.5, 7.5, 7.5]) == 0.0
    with pytest.raises(MetricError, match="variance"):
        sample_variance([1.0])


def test_vaf_examples():
    ap = [1.0, 2.0, 3.0, 4.0]
    assert vaf(ap, ap) == pytest.approx(100.0, abs=1e-12)
    assert vaf(ap, [x + 17.5 for x in ap]) == pytest.approx(100.0, abs=1e-9)
    assert vaf(ap, [1.0, 2.0, 3.0, 8.0]) == pytest.approx(-140.0, abs=1e-9)
    with pytest.raises(MetricError, match="vaf"):
        vaf([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])


def test_r2_examples():
    ap = [1.0, 2.0, 3.0]
    assert r2(ap, ap) == pytest.approx(1.0, abs=1e-12)
    assert r2(ap, [2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    assert r2(ap, [3.0, 2.0, 1.0]) == pytest.approx(-3.0, abs=1e-12)
    with pytest.raises(MetricError, match="r2.*constant"):
        r2([4.0, 4.0], [1.0, 2.0])


def test_nse_matches_r2_examples():
    ap = [1.0, 2.0, 3.0]
    assert nse(ap, ap) == pytest.approx(1.0, abs=1e-12)
    assert nse(ap, [2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    assert nse(ap, [3.0, 2.0, 1.0]) == pytest.approx(-3.0, abs=1e-12)


def test_mape_examples():
    assert mape([100.0, 200.0], [100.0, 200.0]) == 0.0
    assert mape([100.0, 200.0], [90.0, 220.0]) == pytest.approx(10.0, abs=1e-12)
    assert mape([50.0], [100.0]) == pytest.approx(100.0, abs=1e-12)
    with pytest.raises(MetricError, match="mape.*zero"):
        mape([100.0, 0.0], [1.0, 1.0])


def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert rmse([1.0], [4.0]) == pytest.approx(3.0, abs=1e-12)


def test_wmape_examples():
    assert wmape([100.0, 100.0], [100.0, 100.0]) == 0.0
    assert wmape([100.0, 100.0], [90.0, 110.0]) == pytest.approx(10.0, abs=1e-12)
    assert wmape([10.0, 90.0], [0.0, 90.0]) == pytest.approx(10.0, abs=1e-12)
    with pytest.raises(MetricError, match="wmape.*zero"):
        wmape([-1.0, 1.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# input validation


def test_length_mismatch_names_metric():
    with pytest.raises(MetricError, match="rmse.*mismatch"):
        rmse([1.0, 2.0], [1.0])


def test_non_finite_rejected():
    with pytest.raises(MetricError, match="finite"):
        rmse([1.0, float("nan")], [1.0, 2.0])
    with pytest.raises(MetricError, match="finite"):
        vaf([1.0, 2.0], [1.0, float("inf")])


def test_non_1d_rejected():
    with pytest.raises(MetricError, match="one-dimensional"):
        rmse([[1.0, 2.0]], [[1.0, 2.0]])


def test_too_short_rejected():
    with pytest.raises(MetricError, match="at least 2"):
        vaf([1.0], [1.0])


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_perfect_fit():
    ap = [10.0, 20.0, 30.0]
    report = evaluate(ap, ap)
    assert (report.vaf, report.r2, report.mape, report.nse, report.rmse, report.wmape) == (
        100.0,
        1.0,
        0.0,
        1.0,
        0.0,
        0.0,
    )
    assert report.n == 3


def test_evaluate_composes_the_individual_metrics():
    rng = np.random.default_rng(7)
    ap = list(rng.uniform(10, 500, size=40))
    pp = list(rng.uniform(10, 500, size=40))
    report = evaluate(ap, pp)
    assert report.vaf == vaf(ap, pp)
    assert report.r2 == r2(ap, pp)
    assert report.mape == mape(ap, pp)
    assert report.nse == nse(ap, pp)
    assert report.rmse == rmse(ap, pp)
    assert report.wmape == wmape(ap, pp)
    assert report.n == 40


def test_evaluate_json_and_table():
    report = evaluate([1.0, 2.0, 4.0], [1.5, 2.5, 3.5])
    payload = json.loads(json.dumps(report.to_dict()))
    assert set(payload) == {"vaf", "r2", "mape", "nse", "rmse", "wmape", "n"}
    table = report.format_table()
    lines = table.splitlines()
    assert len(lines) == 2
    assert "VAF(%)" in lines[0] and "WMAPE(%)" in lines[0]
    assert f"{report.rmse:.4f}" in lines[1]


def test_evaluate_error_names_first_failing_metric():
    with pytest.raises(MetricError, match="mape"):
        evaluate([1.0, 0.0, 2.0], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# metric identities


series_pairs = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
    )
)


def varied(ap):
    return sample_variance(ap) > 1e-9


@settings(max_examples=150, deadline=None)
@given(series_pairs)
def test_r2_equals_nse_identically(pair):
    ap, pp = pair
    if not varied(ap):
        return
    assert r2(ap, pp) == nse(ap, pp)


@settings(max_examples=150, deadline=None)
@given(series_pairs, st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_vaf_ignores_constant_prediction_offsets(pair, c):
    ap, pp = pair
    if not varied(ap):
        return
    shifted = [p + c for p in pp]
    assert vaf(ap, shifted) == pytest.approx(vaf(ap, pp), rel=1e-6, abs=1e-6)


@settings(max_examples=150, deadline=None)
@given(series_pairs, st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_rmse_ignores_joint_offsets(pair, c):
    ap, pp = pair
    assert rmse([a + c for a in ap], [p + c for p in pp]) == pytest.approx(
        rmse(ap, pp), rel=1e-6, abs=1e-6
    )


@settings(max_examples=150, deadline=None)
@given(series_pairs)
def test_rmse_squared_times_n_is_rss(pair):
    ap, pp = pair
    n = len(ap)
    rss = sum((a - p) ** 2 for a, p in zip(ap, pp))
    assert rmse(ap, pp) ** 2 * n == pytest.approx(rss, rel=1e-9, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(series_pairs)
def test_wmape_at_most_mape_for_constant_actuals(pair):
    ap, pp = pair
    const_ap = [ap[0]] * len(ap)
    # Equal in exact arithmetic. Each side sums n positive terms in floats,
    # so the two may differ by about n rounding steps at mape's magnitude.
    m = mape(const_ap, pp)
    assert wmape(const_ap, pp) <= m + max(1e-9, (len(ap) + 4) * math.ulp(m))


@settings(max_examples=100, deadline=None)
@given(series_pairs)
def test_mape_wmape_zero_iff_exact(pair):
    ap, pp = pair
    assert mape(ap, ap) == 0.0 and wmape(ap, ap) == 0.0
    if any(a != p for a, p in zip(ap, pp)):
        assert mape(ap, pp) > 0.0 and wmape(ap, pp) > 0.0


# ---------------------------------------------------------------------------
# cross-check against the independent straight-from-formula implementations


def test_spot_check_against_reference_implementations():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        ap = list(rng.uniform(1.0, 1e4, size=n))
        pp = list(rng.uniform(0.0, 1e4, size=n))
        assert vaf(ap, pp) == pytest.approx(oracles.o_vaf(ap, pp), rel=1e-9, abs=1e-9)
        assert r2(ap, pp) == pytest.approx(oracles.o_r2(ap, pp), rel=1e-9, abs=1e-9)
        assert mape(ap, pp) == pytest.approx(oracles.o_mape(ap, pp), rel=1e-9, abs=1e-9)
        assert nse(ap, pp) == pytest.approx(oracles.o_nse(ap, pp), rel=1e-9, abs=1e-9)
        assert rmse(ap, pp) == pytest.approx(oracles.o_rmse(ap, pp), rel=1e-9, abs=1e-9)
        assert wmape(ap, pp) == pytest.approx(oracles.o_wmape(ap, pp), rel=1e-9, abs=1e-9)
