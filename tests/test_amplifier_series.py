"""An analytic anchor for the amplifier path: the Bussgang/Laguerre series.

For a circular complex Gaussian input x of power P through a memoryless
AM/AM stage y = h(|x|^2) x, expand h(P u), u = |x|^2 / P ~ Exp(1), in the
generalised Laguerre polynomials L_k^(1), which are orthogonal under the
weight u e^-u with norm k + 1:

    a_k = E[u h(P u) L_k^(1)(u)] / (k + 1).

a_0 is the Bussgang gain, and the output autocorrelation is

    R_y(tau) = P sum_k (k + 1) |a_k|^2 |rho(tau)|^(2k) rho(tau),

with rho the input's normalised autocorrelation (Bussgang, MIT RLE TR 216,
1952; Dardari, Tralli and Vaccari, IEEE Trans. Commun. 48(10), 2000).  An
OFDM symbol of N equal-power subcarriers in L*N samples is circularly
stationary, so rho is the DFT of the flat in-band spectrum, the expected
periodogram is the DFT of R_y, and its bins sum to the output power R_y(0).
From it the ACPR and the OBO of ``eval_obo_vs_acpr``'s ``none`` rows follow
with no simulation.
"""

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

from paprlab.config import config_from_dict
from paprlab.curvefile import read_curve
from paprlab.harness import eval_obo_vs_acpr
from paprlab.metrics import acpr
from paprlab.ofdm import band_bins

# laggauss(200) overflows.  At the stock amplifier, 150 nodes or 60 terms move
# ACPR and OBO by less than 1e-7 dB, and 20 terms by less than 1e-5 dB.
NODES = 100
TERMS = 40


def laguerre1(u: np.ndarray, terms: int) -> np.ndarray:
    """L_k^(1)(u) for k < terms, by the three-term recurrence
    (k + 1) L_(k+1) = (2k + 2 - u) L_k - (k + 1) L_(k-1)."""
    out = np.empty((terms, u.size))
    out[0] = 1.0
    out[1] = 2.0 - u
    for k in range(1, terms - 1):
        out[k + 1] = ((2 * k + 2 - u) * out[k] - (k + 1) * out[k - 1]) / (k + 1)
    return out


def series_acpr_obo(n: int, oversampling: int, a0: float, v: float, p: float,
                    ibo_db: float) -> tuple[float, float]:
    """(ACPR, OBO) in dB of a Gaussian OFDM input at unit power, backed off by
    ibo_db, through the RAPP amplifier (a0, v, p)."""
    power = a0 ** 2 * 10.0 ** (-ibo_db / 10.0)
    u, w = laggauss(NODES)
    # RAPP gain per unit amplitude: G(r) / r at r^2 = P u
    gain = v * (1.0 + (v * v * power * u / (a0 * a0)) ** p) ** (-1.0 / (2.0 * p))
    k = np.arange(TERMS)
    coeffs = laguerre1(u, TERMS) @ (w * u * gain) / (k + 1)
    total = n * oversampling
    spectrum = np.zeros(total)
    spectrum[band_bins(n, total)[0]] = 1.0 / n
    rho = np.fft.ifft(spectrum) * total  # rho(0) = 1
    r_y = power * sum((kk + 1) * c * c * np.abs(rho) ** (2 * kk) * rho
                      for kk, c in zip(k, coeffs))
    per_bin = np.fft.fft(r_y).real / total
    return (float(acpr(np.fft.fftshift(per_bin), n)),
            float(10.0 * np.log10(a0 ** 2 / r_y[0].real)))


def test_none_matches_the_series_at_two_back_offs(tmp_path):
    """The simulated ACPR and OBO of plain OFDM at the stock N = 72, L = 4
    and 2000 symbols match the series.

    Tolerances: at seed 321 the gaps are 0.04 and 0.01 dB in ACPR and
    0.01 dB in OBO, from the sampling spread of 2000 symbols and the
    non-Gaussian tail of a sum of 72 subcarriers.  ACPR within 0.1 dB and
    OBO within 0.03 dB leave room for both, yet catch a wrong RAPP exponent:
    at p = 3 the series moves ACPR by 0.27-0.54 dB and OBO by 0.32-0.34 dB.
    N = 8 is far from Gaussian: at 4000 symbols the series is off in ACPR by
    0.06 dB at 3.7 dB, 0.2-0.3 dB at 2 and 5 dB and 1.1 dB at 8 dB.
    """
    grid = [0.0, 3.7]
    cfg = config_from_dict({
        "methods": ["none"], "seed": 321, "output_dir": str(tmp_path),
        "eval": {"table_symbols": 2000, "obo_acpr_ibo_db": grid},
    })
    assert (cfg.system.n_subcarriers, cfg.system.oversampling) == (72, 4)
    _, columns, rows = read_curve(eval_obo_vs_acpr(cfg))
    simulated = {float(r[columns.index("ibo_db")]):
                 (float(r[columns.index("acpr_db")]), float(r[columns.index("obo_db")]))
                 for r in rows}
    hpa = cfg.hpa
    for ibo_db in grid:
        acpr_db, obo_db = series_acpr_obo(72, 4, hpa.a0, hpa.v, hpa.p, ibo_db)
        assert simulated[ibo_db][0] == pytest.approx(acpr_db, abs=0.1), ibo_db
        assert simulated[ibo_db][1] == pytest.approx(obo_db, abs=0.03), ibo_db

