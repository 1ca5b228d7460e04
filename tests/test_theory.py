"""Tests for the closed-form limits, pinned against two independent oracles.

The alternating binomial sum is validated against (a) the same series
summed with 200-digit decimals and exact rationals, and (b) the correct-
decision probability integral (Rice signal bin versus M-1 Rayleigh noise
bins) evaluated by adaptive quadrature.  The two oracles share no code
with the implementation.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e

from conftest import esn0_to_snr
from mfskmodem.signal import ModemProfile
from mfskmodem.theory import (
    bits_per_symbol,
    ebn0_to_esn0,
    ser_noncoherent_mfsk,
    ser_noncoherent_mfsk_linear,
    ser_to_ber,
    snr_to_ebn0,
    snr_to_esn0,
)


def oracle_sum(m: int, gamma: float, digits: int = 200) -> float:
    """The series at 200 digits: exact binomials, independent code path."""
    with localcontext() as ctx:
        ctx.prec = digits
        g = Decimal(gamma)
        total = Decimal(0)
        for j in range(1, m):
            coeff = Fraction(math.comb(m - 1, j), j + 1)
            term = (Decimal(coeff.numerator) / Decimal(coeff.denominator)
                    * (-g * j / (j + 1)).exp())
            total += term if j % 2 == 1 else -term
        return float(total)


def oracle_quadrature(m: int, gamma: float) -> float:
    """1 - P(correct) from the envelope-statistics integral.

    The signal bin's squared envelope is noncentral chi-square (2 dof,
    noncentrality 2*gamma in unit-noise scaling); each noise bin is
    exponential.  i0e keeps the Rice density numerically tame.
    """

    def integrand(y):
        bessel = i0e(math.sqrt(2.0 * gamma * y))
        gauss = math.exp(-((math.sqrt(y) - math.sqrt(2.0 * gamma)) ** 2) / 2.0)
        return 0.5 * bessel * gauss * (1.0 - math.exp(-y / 2.0)) ** (m - 1)

    # The Rice factor confines the mass near y = 2*gamma; beyond 12 "sigma"
    # in envelope units the integrand is < 1e-30.
    center = 2.0 * gamma + 2.0
    upper = (math.sqrt(2.0 * gamma) + 12.0) ** 2
    p_correct, _ = quad(integrand, 0.0, upper,
                        points=[center / 2, center, min(2 * center, upper)], limit=200)
    return 1.0 - p_correct


class TestSerNoncoherentMfsk:
    def test_chance_level_is_exact(self):
        assert ser_noncoherent_mfsk_linear(64, 0.0) == pytest.approx(63 / 64, abs=1e-12)
        assert ser_noncoherent_mfsk_linear(8, 0.0) == pytest.approx(7 / 8, abs=1e-12)

    def test_binary_matches_closed_form_on_grid(self):
        for gamma in np.linspace(0.0, 30.0, 50):
            expected = 0.5 * math.exp(-gamma / 2.0)
            assert ser_noncoherent_mfsk_linear(2, float(gamma)) == pytest.approx(
                expected, rel=1e-12)

    def test_binary_special_point(self):
        assert ser_noncoherent_mfsk_linear(2, 2 * math.log(2)) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("m,db", [
        (64, 10.0), (64, 0.0), (64, -5.0), (64, 15.0), (16, 6.0), (8, 3.0),
    ])
    def test_matches_high_precision_oracle(self, m, db):
        gamma = 10.0 ** (db / 10.0)
        assert ser_noncoherent_mfsk(m, db) == pytest.approx(
            oracle_sum(m, gamma), rel=1e-9)

    @pytest.mark.parametrize("m,db", [(64, 10.0), (64, 2.0), (8, 6.0)])
    def test_matches_quadrature_oracle(self, m, db):
        gamma = 10.0 ** (db / 10.0)
        assert ser_noncoherent_mfsk(m, db) == pytest.approx(
            oracle_quadrature(m, gamma), rel=1e-7)

    def test_monotone_non_increasing(self):
        for m in (8, 64):
            values = [ser_noncoherent_mfsk(m, db) for db in np.arange(-40.0, 40.01, 0.25)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_small_m_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ser_noncoherent_mfsk(1, 10.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ser_noncoherent_mfsk(64, float("inf"))
        with pytest.raises(ValueError, match="finite"):
            ser_noncoherent_mfsk_linear(64, float("nan"))
        with pytest.raises(ValueError, match="^es_n0_db 4000 gives no finite linear Es/N0$"):
            ser_noncoherent_mfsk(64, 4000.0)


class TestSerToBer:
    def test_chance_level(self):
        assert ser_to_ber(64, 63 / 64) == 0.5

    def test_zero_and_binary_identity(self):
        assert ser_to_ber(16, 0.0) == 0.0
        assert ser_to_ber(2, 0.123) == 0.123

    def test_never_exceeds_symbol_rate(self):
        for m in (4, 16, 64):
            for p in np.linspace(0.0, 1.0, 11):
                assert ser_to_ber(m, float(p)) <= p

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            ser_to_ber(12, 0.1)


class TestBitsPerSymbol:
    def test_log2_of_the_alphabet(self):
        assert [bits_per_symbol(2 ** k) for k in range(1, 11)] == list(range(1, 11))

    @pytest.mark.parametrize("m", [0, 1, 3, 12, -4])
    def test_non_power_of_two_rejected(self, m):
        with pytest.raises(ValueError, match="power of two >= 2"):
            bits_per_symbol(m)
        with pytest.raises(ValueError, match="power of two >= 2"):
            ebn0_to_esn0(m, 0.0)


class TestSnrConversions:
    def test_full_profile_offset(self, full_profile):
        # Offset 10*log10(2500 * (4096/11025) / 6) = 21.898 dB.
        assert snr_to_ebn0(full_profile, -25.0) == pytest.approx(-3.10, abs=0.01)
        assert snr_to_ebn0(full_profile, -21.898) == pytest.approx(0.0, abs=5e-4)

    def test_identity_when_bt_equals_k(self):
        # B*T = k = 2: N=512 at 1 kHz gives T=0.512 s, so B = 3.90625 Hz.
        profile = ModemProfile(1000.0, 512, 4, 10, 2, 2 / 0.512)
        assert snr_to_ebn0(profile, -7.5) == pytest.approx(-7.5, abs=1e-12)

    def test_round_trips(self, full_profile):
        for value in (-25.0, 0.0, 13.7):
            assert esn0_to_snr(full_profile, snr_to_esn0(full_profile, value)) == (
                pytest.approx(value, abs=1e-12))

    def test_ebn0_to_esn0_values(self):
        assert ebn0_to_esn0(64, 0.0) == pytest.approx(10 * math.log10(6), abs=1e-12)
        assert ebn0_to_esn0(64, 0.0) == pytest.approx(7.78, abs=0.005)
        assert ebn0_to_esn0(2, -3.3) == pytest.approx(-3.3, abs=1e-12)
        assert ebn0_to_esn0(64, -10 * math.log10(6)) == pytest.approx(0.0, abs=1e-12)

    def test_bit_and_symbol_curves_are_parallel(self, full_profile):
        # The Eb/N0 and Es/N0 conversions differ by the constant 10*log10(k),
        # so composing them is a pure horizontal shift.
        shift = snr_to_esn0(full_profile, 0.0) - snr_to_ebn0(full_profile, 0.0)
        assert shift == pytest.approx(10 * math.log10(6), abs=1e-12)
        for snr in (-30.0, -11.0, 4.2):
            assert snr_to_esn0(full_profile, snr) - snr_to_ebn0(full_profile, snr) == (
                pytest.approx(shift, abs=1e-12))
