"""Tests for CADConfig validation and suggestion."""

import pytest

from repro.core import CADConfig


class TestValidation:
    def test_valid(self):
        config = CADConfig(window=100, step=10)
        assert config.window == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 1, "step": 1},
            {"window": 10, "step": 0},
            {"window": 10, "step": 10},
            {"window": 10, "step": 2, "k": 0},
            {"window": 10, "step": 2, "tau": 1.5},
            {"window": 10, "step": 2, "tau": -0.1},
            {"window": 10, "step": 2, "theta": 2.0},
            {"window": 10, "step": 2, "eta": 0.0},
            {"window": 10, "step": 2, "min_sigma": 0.0},
            {"window": 10, "step": 2, "rc_mode": "bogus"},
            {"window": 10, "step": 2, "rc_decay": 0.0},
            {"window": 10, "step": 2, "rc_window": 0},
            {"window": 10, "step": 2, "sensor_attribution": "bogus"},
            {"window": 10, "step": 2, "variation_sides": "bogus"},
            {"window": 10, "step": 2, "engine": "turbo"},
            {"window": 10, "step": 2, "corr_refresh": 0},
            {"window": 10, "step": 2, "corr_refresh": -3},
            {"window": 10, "step": 2, "n_jobs": 0},
            {"window": 10, "step": 2, "n_jobs": -2},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CADConfig(**kwargs)

    def test_bad_engine_message_names_the_choices(self):
        with pytest.raises(
            ValueError, match="engine must be 'fast', 'delta' or 'reference'"
        ):
            CADConfig(window=10, step=2, engine="turbo")

    def test_delta_is_an_alias_of_fast(self):
        config = CADConfig(window=10, step=2, engine="delta")
        assert config.engine == "fast"
        assert config == CADConfig(window=10, step=2, engine="fast")

    def test_louvain_verify_is_an_unknown_keyword(self):
        with pytest.raises(TypeError, match="louvain_verify"):
            CADConfig(window=10, step=2, louvain_verify=0)

    def test_bad_n_jobs_message_explains_minus_one(self):
        with pytest.raises(ValueError, match="n_jobs must be >= 1 or -1"):
            CADConfig(window=10, step=2, n_jobs=0)
        # -1 itself is the "all CPUs" sentinel and must stay valid.
        assert CADConfig(window=10, step=2, n_jobs=-1).n_jobs == -1

    def test_bad_corr_refresh_message(self):
        with pytest.raises(ValueError, match="corr_refresh must be >= 1"):
            CADConfig(window=10, step=2, corr_refresh=0)

    def test_frozen(self):
        config = CADConfig(window=100, step=10)
        with pytest.raises(AttributeError):
            config.window = 50


class TestEffectiveK:
    def test_caps_at_n_minus_one(self):
        config = CADConfig(window=100, step=10, k=50)
        assert config.effective_k(10) == 9

    def test_keeps_small_k(self):
        config = CADConfig(window=100, step=10, k=5)
        assert config.effective_k(100) == 5

    def test_rejects_single_sensor(self):
        with pytest.raises(ValueError):
            CADConfig(window=100, step=10).effective_k(1)


class TestSuggest:
    def test_window_ratio(self):
        config = CADConfig.suggest(10_000, 30)
        assert config.window == 150  # 0.015 |T|
        assert 2 <= config.step < config.window

    def test_step_coarsens_for_wide_networks(self):
        narrow = CADConfig.suggest(3000, 100)
        wide = CADConfig.suggest(3000, 800)
        assert wide.step >= narrow.step

    def test_short_series(self):
        config = CADConfig.suggest(40, 5)
        assert config.window <= 20
        assert config.step < config.window

    def test_k_scales_with_sensors(self):
        assert CADConfig.suggest(5000, 26).k == 10
        assert CADConfig.suggest(5000, 264).k == 20
        assert CADConfig.suggest(5000, 406).k == 30
        assert CADConfig.suggest(5000, 1266).k == 50

    def test_k_capped_for_tiny_systems(self):
        assert CADConfig.suggest(5000, 4).k == 3

    def test_overrides(self):
        config = CADConfig.suggest(5000, 26, theta=0.4, tau=0.6)
        assert config.theta == 0.4
        assert config.tau == 0.6
