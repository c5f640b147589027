"""The `validate` checks that hold a production route against a direct
expansion: each passes, and each fails once the route it reads is off by
far more than its tolerance."""

import pytest

from leakyqkd import oil, passive, validation


def shift_blocks(region_moments):
    def shifted(*args, **kwargs):
        moments = region_moments(*args, **kwargs)
        moments.blocks = {n: block + 1e-6 for n, block in moments.blocks.items()}
        return moments
    return shifted


def shift_sectors(emission_sectors):
    return lambda params: [sector + 1e-6 for sector in emission_sectors(params)]


def swap_signal_modes_only(basis_index):
    # the mirror configuration with modes 1 and 5 left in place
    return lambda basis, config: basis_index(basis, config[:2] + config[:1:-1])


def scale_factor(density_factor):
    return lambda rho, name="rho": density_factor(rho, name) * (1.0 + 1e-4)


CHECKS = {
    "passive-block-expansion": (validation.check_block_expansion, passive, "region_moments",
                                shift_blocks),
    "oil-block-expansion": (validation.check_oil_expansion, oil, "emission_sectors",
                            shift_sectors),
    "passive-bit-symmetry": (validation.check_bit_symmetry, passive, "basis_index",
                             swap_signal_modes_only),
    "eigen-oracle": (validation.check_eigen_oracle, validation, "density_factor",
                     scale_factor),
}


@pytest.mark.parametrize("name", CHECKS)
def test_check_passes(name):
    check = CHECKS[name][0]
    ok, detail = check()
    assert ok, detail
    assert float(detail.rsplit(" ", 1)[1]) <= 1e-14


@pytest.mark.parametrize("name", CHECKS)
def test_check_fails_on_a_perturbed_route(name, monkeypatch):
    check, owner, attr, perturb = CHECKS[name]
    monkeypatch.setattr(owner, attr, perturb(getattr(owner, attr)))
    ok, detail = check()
    assert not ok, detail
