"""Exhaustive FpartConfig validation and derived-value tests."""

import dataclasses

import pytest

from repro.core import DEFAULT_CONFIG, FpartConfig


class TestDefaults:
    def test_paper_values(self):
        """The defaults are exactly the paper's fixed parameters (§4)."""
        c = DEFAULT_CONFIG
        assert (c.sigma1, c.sigma2) == (0.5, 0.5)
        assert c.n_small == 15
        assert (c.lambda_s, c.lambda_t, c.lambda_r) == (0.4, 0.6, 0.1)
        assert c.eps_max_multi == c.eps_max_two == 1.05
        assert c.eps_min_multi == 0.3
        assert c.eps_min_two == 0.95

    def test_io_weight_dominates_size_weight(self):
        assert DEFAULT_CONFIG.lambda_t > DEFAULT_CONFIG.lambda_s

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.n_small = 3  # type: ignore[misc]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_small": -1},
            {"max_moves": -1},
            {"max_passes": 0},
            {"sigma1": -0.1},
            {"lambda_s": -0.1},
            {"lambda_t": -1.0},
            {"lambda_r": -0.5},
            {"eps_min_multi": 1.5},
            {"eps_min_two": -0.1},
            {"eps_max_multi": 0.0},
            {"eps_max_two": -2.0},
            {"improvement_strategy": "bogus"},
            {"gain_mode": "area"},
            {"pass_stall_limit": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FpartConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_small": 0},
            {"max_moves": 0},
            {"max_passes": 1},
            {"improvement_strategy": "none"},
            {"improvement_strategy": "last_pair"},
            {"gain_mode": "pin"},
            {"pass_stall_limit": 1},
            {"pass_stall_limit": None},
            {"literal_epsilons": True},
        ],
    )
    def test_accepts(self, kwargs):
        FpartConfig(**kwargs)


class TestDerivedWindows:
    def test_multiplier_reading(self):
        c = DEFAULT_CONFIG
        assert c.size_cap_multiplier(two_block=True) == 1.05
        assert c.size_cap_multiplier(two_block=False) == 1.05
        assert c.size_floor_multiplier(two_block=True) == 0.95
        assert c.size_floor_multiplier(two_block=False) == 0.3

    def test_literal_reading(self):
        c = FpartConfig(literal_epsilons=True)
        assert c.size_cap_multiplier(True) == pytest.approx(2.05)
        assert c.size_floor_multiplier(True) == pytest.approx(0.05)
        assert c.size_floor_multiplier(False) == pytest.approx(0.7)

    def test_two_block_floor_stricter(self):
        c = DEFAULT_CONFIG
        assert c.size_floor_multiplier(True) > c.size_floor_multiplier(False)
