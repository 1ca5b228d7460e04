"""Closed-form error-rate limits for non-coherent orthogonal MFSK and the
SNR-domain conversions used when plotting against them.

The symbol error probability is the alternating binomial sum

    P_s = sum_{j=1}^{M-1} (-1)^(j+1) * C(M-1, j) / (j+1) * exp(-gamma * j/(j+1))

with gamma = Es/N0 (linear).  For M = 64 the terms reach ~1e16 while the
result is O(1), so evaluating it in double precision loses everything to
cancellation.  The sum is therefore carried out in decimal arithmetic at
50 significant digits (exact binomial coefficients, Decimal.exp) and only
the final value is rounded to a float.  Tests validate the result against
a much-higher-precision summation and an equivalent quadrature form.
"""

import math
from decimal import Decimal, localcontext

# Digits carried by the alternating-sum evaluation.  The largest
# intermediate term for M = 64 is ~3e16, so 50 digits leave ~33 digits of
# headroom below the final O(1) result; far beyond the 1e-9 contract.
_SUM_DIGITS = 50


def ser_noncoherent_mfsk_linear(tone_count: int, es_n0: float) -> float:
    """Symbol error probability at linear Es/N0 (gamma >= 0; 0 = chance level)."""
    m = int(tone_count)
    if m < 2:
        raise ValueError("tone_count must be at least 2")
    if not (math.isfinite(es_n0) and es_n0 >= 0):
        raise ValueError("es_n0 must be finite and non-negative")
    with localcontext() as ctx:
        ctx.prec = _SUM_DIGITS
        gamma = Decimal(float(es_n0))
        total = Decimal(0)
        for j in range(1, m):
            term = Decimal(math.comb(m - 1, j)) / (j + 1)
            term *= (-gamma * j / (j + 1)).exp()
            if j % 2 == 1:
                total += term
            else:
                total -= term
        p = float(total)
    return min(max(p, 0.0), 1.0)


def ser_noncoherent_mfsk(tone_count: int, es_n0_db: float) -> float:
    """Symbol error probability of non-coherent orthogonal MFSK at Es/N0 in dB.

    Chance level (gamma = 0, i.e. Es/N0 of -inf dB) is not representable
    here; query it through ser_noncoherent_mfsk_linear(tone_count, 0.0).
    """
    if not math.isfinite(es_n0_db):
        raise ValueError("es_n0_db must be finite")
    try:
        es_n0 = 10.0 ** (es_n0_db / 10.0)
    except OverflowError:
        raise ValueError(f"es_n0_db {es_n0_db:g} gives no finite linear Es/N0") from None
    return ser_noncoherent_mfsk_linear(tone_count, es_n0)


def bits_per_symbol(tone_count: int) -> int:
    """k = log2(M), the bits one tone of an M-ary alphabet carries."""
    m = int(tone_count)
    if m < 2 or m & (m - 1):
        raise ValueError("tone_count must be a power of two >= 2")
    return m.bit_length() - 1


def ser_to_ber(tone_count: int, p_symbol: float) -> float:
    """Bit error probability implied by a symbol error probability.

    For orthogonal signaling every wrong symbol is equally likely, giving
    P_b = P_s * 2**(k-1) / (2**k - 1) with k = log2(M).
    """
    k = bits_per_symbol(tone_count)
    if not 0.0 <= p_symbol <= 1.0:
        raise ValueError("p_symbol must be a probability")
    return p_symbol * (1 << (k - 1)) / ((1 << k) - 1)


def snr_to_esn0(profile, snr_db: float) -> float:
    """Es/N0 in dB from a reference-bandwidth SNR in dB.

    Es/N0 = SNR * B*T with T the symbol duration, so the dB offset is
    10*log10(B*T).
    """
    bt = profile.ref_bandwidth_hz * profile.symbol_duration_s
    return snr_db + 10.0 * math.log10(bt)


def snr_to_ebn0(profile, snr_db: float) -> float:
    """Eb/N0 in dB from a reference-bandwidth SNR in dB.

    Eb/N0 = SNR * B*T/k: the Es/N0 conversion spread over the k bits a
    symbol carries.
    """
    bt = profile.ref_bandwidth_hz * profile.symbol_duration_s
    return snr_db + 10.0 * math.log10(bt / profile.bits_per_symbol)


def ebn0_to_esn0(tone_count: int, eb_n0_db: float) -> float:
    """Es/N0 = Eb/N0 + 10*log10(k), linking per-bit and per-symbol domains."""
    return eb_n0_db + 10.0 * math.log10(bits_per_symbol(tone_count))
