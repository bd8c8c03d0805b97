import numpy as np
import pytest

from critwin import (
    AldousWindow,
    ConfigError,
    GeneralWindow,
    InvalidWindowError,
    RunConfig,
    edge_probability,
    make_stream,
)
from critwin.core import config_from_mapping, parse_config_text


def test_edge_probability_aldous_lambda_zero():
    assert edge_probability(AldousWindow(0.0), 1000) == pytest.approx(0.001, abs=1e-15)


def test_edge_probability_general():
    p = edge_probability(GeneralWindow(lam=1.0, epsilon=0.1), 1000)
    assert p == pytest.approx(1.1 / 1000, rel=1e-12)


def test_edge_probability_invalid_window():
    # p = 0.5 - 2 * 2**(-4/3) < 0
    with pytest.raises(InvalidWindowError) as err:
        edge_probability(AldousWindow(-2.0), 2)
    assert "n=2" in str(err.value) and "lambda=-2" in str(err.value)


def test_edge_probability_requires_n_at_least_two():
    with pytest.raises(InvalidWindowError):
        edge_probability(AldousWindow(0.0), 1)


@pytest.mark.parametrize("lam", [0.0, 0.5, 3.0])
def test_edge_probability_decreasing_in_n(lam):
    w = AldousWindow(lam)
    ns = list(range(2, 200)) + [500, 1000, 5000, 10**6]
    ps = []
    for n in ns:
        try:
            ps.append(edge_probability(w, n))
        except InvalidWindowError:
            assert not ps  # only the smallest n can push p past 1
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_general_window_rejects_nonpositive_epsilon():
    with pytest.raises(InvalidWindowError):
        GeneralWindow(lam=0.0, epsilon=0.0)


def test_general_window_regime_flag_recorded_not_enforced():
    w = GeneralWindow(lam=0.0, epsilon=1e-3)
    assert not w.regime_ok(1000)  # eps**3 n tiny
    assert w.regime_ok(10**13)
    assert GeneralWindow(lam=0.0, epsilon=1e110).regime_ok(100)  # eps**3 overflows
    # a run violating the regime is still constructible
    RunConfig(n=10**6, x=1.0, window=w)


def test_derive_k_aldous():
    cfg = RunConfig(n=1000, x=1.0, window=AldousWindow(0.0))
    assert cfg.k == 10


def test_derive_k_general():
    cfg = RunConfig(n=1000, x=2.0, window=GeneralWindow(lam=0.0, epsilon=0.1))
    assert cfg.k == 20


def test_derive_k_zero_is_config_error():
    cfg = RunConfig(n=8, x=0.1, window=AldousWindow(0.0))
    with pytest.raises(ConfigError, match="increase x or n"):
        cfg.k


def test_derive_k_bounded_by_n_on_random_configs():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 10**6))
        x = float(rng.uniform(0.01, 1.0)) * n ** (2.0 / 3.0)
        cfg = RunConfig(n=n, x=x, window=AldousWindow(0.0))
        try:
            k = cfg.k
        except ConfigError:
            continue
        assert 1 <= k <= n


def test_make_stream_deterministic():
    a = make_stream(42, 0, "graph").random(100)
    b = make_stream(42, 0, "graph").random(100)
    assert np.array_equal(a, b)


def test_make_stream_distinct_replicates_and_labels():
    base = make_stream(42, 0, "graph").random(100)
    assert not np.array_equal(base, make_stream(42, 1, "graph").random(100))
    assert not np.array_equal(base, make_stream(42, 0, "sde").random(100))


def test_run_config_validation():
    w = AldousWindow(0.0)
    with pytest.raises(ConfigError):
        RunConfig(n=0, x=1.0, window=w)
    with pytest.raises(ConfigError):
        RunConfig(n=10, x=0.0, window=w)
    with pytest.raises(ConfigError):
        RunConfig(n=10, x=1.0, window=w, replicates=0)


def test_parse_config_roundtrip():
    text = """
    # example run
    n = 1000
    x = 1.5
    lambda = -0.5
    window = general
    epsilon = 0.2
    seed = 7
    replicates = 3
    """
    cfg = config_from_mapping(parse_config_text(text))
    assert cfg.n == 1000
    assert cfg.x == 1.5
    assert isinstance(cfg.window, GeneralWindow)
    assert cfg.window.lam == -0.5
    assert cfg.window.epsilon == 0.2
    assert cfg.seed == 7
    assert cfg.replicates == 3


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("n = 10\nbogus = 3\n")


def test_parse_config_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("n = ten\n")


def test_config_requires_n_and_x():
    with pytest.raises(ConfigError, match="missing required"):
        config_from_mapping({"n": 10})


def test_config_general_requires_epsilon():
    with pytest.raises(ConfigError, match="epsilon"):
        config_from_mapping({"n": 10, "x": 1.0, "window": "general"})
