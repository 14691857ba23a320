"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 1 and 8d evaluate the THz outage at the paper's stated operating
points and check it against references that bypass the residue series:
nested quadrature of the Bessel-K densities (criterion 1) and Monte Carlo
(criterion 8d).  The paper's quoted values at those points are not
reproducible from the documented model; the README section "Acceptance
criteria 1 and 8d" gives the numbers and the analysis.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from cascade_fading.channels import (
    SPEED_OF_LIGHT,
    ThzAtmosphere,
    misalignment_params,
    molecular_absorption,
    rytov_variance,
    thz_gg_params,
    TURBULENCE_PRESETS,
)
from cascade_fading.cli import build_product, parse_config, recipe_path, run
from cascade_fading.distributions import (
    CompositeProduct,
    GammaGammaParams,
    PointingErrorParams,
    gg_pdf,
    sample_z,
    z2_pdf,
    z_cdf,
)
from cascade_fading.mc import ks_statistic, mc_op_parallel, mc_op_thz
from cascade_fading.performance import (
    op_fso_cascade,
    op_fso_parallel_bound,
    op_thz,
)

WEAK = TURBULENCE_PRESETS["weak"]
STRONG = TURBULENCE_PRESETS["strong"]
MODERATE = TURBULENCE_PRESETS["moderate"]


def _report(criterion, ok, detail):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _thz_product(distances, cn2=2.3e-9, f=300e9, aperture=0.0):
    lam = SPEED_OF_LIGHT / f
    links = tuple(
        thz_gg_params(rytov_variance(cn2, lam, d), aperture, lam, d)
        for d in distances
    )
    return CompositeProduct(links)


def _gg_pair_cdf(first, second, x):
    """P(G1 G2 <= x) by nested quadrature over the Bessel-K densities.

    The outer factor's density is negligible beyond 60 for the shaping
    parameters used here (alpha, beta > 2).
    """
    def integrand(u):
        inner = integrate.quad(lambda v: gg_pdf(second, v), 0.0, x / u,
                               epsabs=1e-10)[0]
        return gg_pdf(first, u) * inner
    return integrate.quad(integrand, 0.0, 60.0, epsabs=1e-10, limit=200)[0]


def test_criterion_1_thz_two_hop_op_points():
    """THz two-hop outage at the fig9 splits: 25 dB, 300 GHz, Cn2 = 2.3e-9."""
    ratio = 10.0 ** (25.0 / 10.0)
    ch_12 = _thz_product((100.0, 200.0))
    ch_11 = _thz_product((150.0, 150.0))
    start = time.perf_counter()
    op_12 = op_thz(ch_12, ratio, 1.0).probability
    op_11 = op_thz(ch_11, ratio, 1.0).probability
    elapsed = time.perf_counter() - start
    _report("1 (runtime)", elapsed < 1.0, f"{elapsed:.2f} s")
    _report("1 (equal split is worst)", op_11 > op_12,
            f"OP(150,150)={op_11:.4e} > OP(100,200)={op_12:.4e}")
    # outage is gamma_s Z^2 <= gamma_th, i.e. Z <= sqrt(gamma_th / gamma_s)
    x = math.sqrt(1.0 / ratio)
    ref_12 = _gg_pair_cdf(*ch_12.gg_links, x)
    ref_11 = _gg_pair_cdf(*ch_11.gg_links, x)
    worst = max(abs(op_12 - ref_12), abs(op_11 - ref_11))
    _report("1 (quadrature reference)", worst <= 1e-6,
            f"OP(100,200)={op_12:.6e} vs {ref_12:.6e}, OP(150,150)="
            f"{op_11:.6e} vs {ref_11:.6e}; worst |diff| {worst:.1e} <= 1e-6 "
            "(paper's quoted values: README, Acceptance criteria 1 and 8d)")


def test_criterion_2_molecular_absorption():
    start = time.perf_counter()
    atm = ThzAtmosphere(temperature=296.0, pressure=101325.0, humidity=50.0)
    kappa = molecular_absorption(300e9, atm)
    fs = np.linspace(100e9, 500e9, 4001)
    ks = np.array([molecular_absorption(float(f), atm) for f in fs])
    peaks = fs[1:-1][(ks[1:-1] > ks[:-2]) & (ks[1:-1] > ks[2:])]
    elapsed = time.perf_counter() - start
    ok_anchor = abs(kappa - 5.8268e-4) <= 0.005 * 5.8268e-4
    ok_walls = (any(abs(p - 325e9) < 5e9 for p in peaks)
                and any(abs(p - 380e9) < 5e9 for p in peaks))
    _report("2", ok_anchor and ok_walls and elapsed < 1.0,
            f"kappa(300 GHz)={kappa:.5e} (quoted 5.8268e-4), walls at "
            f"{[round(p / 1e9, 1) for p in peaks if p > 3e11]} GHz, "
            f"{elapsed:.2f} s")


KS_FIXTURES = {
    "N1L0": CompositeProduct((WEAK,)),
    "N2L0 weak": CompositeProduct((WEAK, WEAK)),
    "N2L0 strong": CompositeProduct((STRONG, STRONG)),
    "N1L1": CompositeProduct((WEAK,), (PointingErrorParams(6.7, 0.8),)),
    "N2L1": CompositeProduct((WEAK, STRONG), (PointingErrorParams(6.7, 0.8),)),
    "N2L2": CompositeProduct((WEAK, STRONG), (PointingErrorParams(6.7, 0.8),
                                              PointingErrorParams(5.1, 0.9))),
}


@pytest.mark.slow
def test_criterion_3_oracle_equivalence_ks():
    start = time.perf_counter()
    n = 10**6
    critical = 1.358 / math.sqrt(n)
    results = {}
    for seed, (name, ch) in enumerate(KS_FIXTURES.items(), start=201):
        samples = sample_z(ch, np.random.default_rng(seed), n)
        results[name] = ks_statistic(ch, samples)
    elapsed = time.perf_counter() - start
    ok = all(d < critical for d in results.values()) and elapsed < 120.0
    detail = ", ".join(f"{k}: {v * 1e3:.2f}e-3" for k, v in results.items())
    _report("3", ok, f"KS vs critical {critical * 1e3:.2f}e-3 -> {detail}; "
            f"{elapsed:.0f} s")


def test_criterion_4_product_misalignment_convolution():
    start = time.perf_counter()
    l2 = (PointingErrorParams(6.7, 0.8), PointingErrorParams(6.7, 0.95))
    l3 = (PointingErrorParams(6.7, 0.8),) * 3
    worst = 0.0
    for x in np.linspace(0.04, 0.70, 20):
        def f2(y):
            u = x / y
            return (l2[0].xi / l2[0].a_o ** l2[0].xi * u ** (l2[0].xi - 1)
                    * l2[1].xi / l2[1].a_o ** l2[1].xi * y ** (l2[1].xi - 1) / y)
        lo = x / l2[0].a_o
        oracle = integrate.quad(f2, lo, l2[1].a_o, limit=300)[0] if lo < l2[1].a_o else 0.0
        worst = max(worst, abs(z2_pdf(l2, float(x)) - oracle))
    for x in np.linspace(0.02, 0.48, 20):
        third = l3[2]
        def f3(y):
            u = x / y
            return (z2_pdf(l3[:2], y)
                    * third.xi / third.a_o ** third.xi * u ** (third.xi - 1) / y)
        lo = x / third.a_o
        hi = l3[0].a_o * l3[1].a_o
        oracle = integrate.quad(f3, lo, hi, limit=300)[0] if lo < hi else 0.0
        worst = max(worst, abs(z2_pdf(l3, float(x)) - oracle))
    elapsed = time.perf_counter() - start
    _report("4", worst < 1e-6 and elapsed < 30.0,
            f"worst |closed form - convolution| = {worst:.2e} over 40 points; "
            f"{elapsed:.0f} s")


def test_criterion_5_diversity_order_slope():
    start = time.perf_counter()
    fixtures = {
        "N2L0 weak/strong": CompositeProduct((WEAK, STRONG)),
        "N2L1 mixed": CompositeProduct((WEAK, STRONG),
                                       (PointingErrorParams(6.7, 0.8),)),
        "N1L1": CompositeProduct((WEAK,), (PointingErrorParams(6.7, 0.8),)),
    }
    details = []
    ok = True
    for name, ch in fixtures.items():
        p55 = op_fso_cascade(ch, 10.0 ** 5.5).probability
        p65 = op_fso_cascade(ch, 10.0 ** 6.5).probability
        slope = math.log10(p65) - math.log10(p55)
        target = -min(ch.b_tuple) / 2.0
        ok &= abs(slope - target) <= 0.05 * abs(target)
        details.append(f"{name}: {slope:+.4f} vs {target:+.4f}")
    elapsed = time.perf_counter() - start
    _report("5", ok and elapsed < 10.0, "; ".join(details) + f"; {elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_6_parallel_bound_and_trends():
    start = time.perf_counter()
    n = 10**7
    branch = CompositeProduct(
        (WEAK, WEAK), (misalignment_params(0.05, 0.1, 0.005),) * 2)
    cfg = parse_config(recipe_path("fig7_weak"))
    ok_bound = True
    margins = []
    for snr_db in cfg.sweep.grid():
        r = 10.0 ** (snr_db / 10.0)
        bound = op_fso_parallel_bound(branch, 2, r).probability
        est = mc_op_parallel(branch, 2, r, n, seed=int(snr_db * 10))
        ok_bound &= bound >= est.value - 3 * est.std_error
        margins.append(bound - est.value)
    r30 = 10.0 ** 3.0
    trend = [mc_op_parallel(branch, k, r30, n, seed=900 + k).value
             for k in (1, 2, 3)]
    ok_trend = trend[0] > trend[1] > trend[2] > 0
    elapsed = time.perf_counter() - start
    _report("6", ok_bound and ok_trend and elapsed < 300.0,
            f"bound-mc margins min {min(margins):.2e}; N=L 1->2->3 outage "
            f"{trend[0]:.2e} > {trend[1]:.2e} > {trend[2]:.2e}; {elapsed:.0f} s")


def test_criterion_7_hardware_ceiling():
    ch = _thz_product((100.0, 100.0))
    ratio = 10.0 ** 2.5
    ceiling_ok = True
    for g_th in (1.0 / 0.32 + 1e-9, 5.0, 100.0):
        res = op_thz(ch, ratio, g_th, 0.4, 0.4)
        ceiling_ok &= res.probability == 1.0 and res.method == "hard_ceiling"
    p_ab = op_thz(ch, ratio, 2.0, 0.1, 0.4).probability
    p_ba = op_thz(ch, ratio, 2.0, 0.4, 0.1).probability
    _report("7", ceiling_ok and (p_ab == p_ba),
            f"ceiling returns exactly 1; swap symmetry bit-identical "
            f"({p_ab:.6e})")


def test_criterion_8a_turbulence_ordering():
    r35 = 10.0 ** 3.5
    p_ww = op_fso_cascade(CompositeProduct((WEAK, WEAK)), r35).probability
    p_mm = op_fso_cascade(CompositeProduct((MODERATE, MODERATE)), r35).probability
    p_ws = op_fso_cascade(CompositeProduct((WEAK, STRONG)), r35).probability
    _report("8a", p_ww < p_mm < p_ws,
            f"OP at 35 dB: weak-weak {p_ww:.3e} < moderate-moderate "
            f"{p_mm:.3e} < weak-strong {p_ws:.3e}")


def test_criterion_8b_op_grows_with_hop_count():
    r40 = 10.0 ** 4.0
    ops = [op_fso_cascade(CompositeProduct((WEAK,) * n), r40).probability
           for n in (1, 2, 3)]
    _report("8b", ops[0] < ops[1] < ops[2],
            f"OP at 40 dB for N=1,2,3: {ops[0]:.2e} < {ops[1]:.2e} < {ops[2]:.2e}")


def test_criterion_8c_jitter_swap_symmetry():
    pe1 = misalignment_params(0.05, 0.1, 0.005)
    pe2 = misalignment_params(0.05, 0.1, 0.02)
    a = CompositeProduct((WEAK, WEAK), (pe1, pe2))
    b = CompositeProduct((WEAK, WEAK), (pe2, pe1))
    r40 = 10.0 ** 4.0
    p_a = op_fso_cascade(a, r40).probability
    p_b = op_fso_cascade(b, r40).probability
    _report("8c", p_a == p_b, f"swapping per-hop jitters leaves OP at {p_a:.4e}")


def test_criterion_8d_thz_misalignment_sweep_span():
    """Outage over sigma_s in 1 cm..1 dm on the fig10_n3 channel at 30 dB."""
    cfg = parse_config(recipe_path("fig10_n3"))
    assert cfg.transceiver.snr_ratio_db == 30.0
    assert [(l.distance, l.aperture, l.beam_waist, l.misaligned)
            for l in cfg.links] == [(100.0, 0.025, 0.0125, True)] * 3
    ratio = 10.0 ** (30.0 / 10.0)

    def channel(sigma):
        links = tuple(replace(l, jitter=sigma) for l in cfg.links)
        return build_product(replace(cfg, links=links))

    sigmas = [s for s in cfg.sweep.grid() if 0.01 - 1e-12 <= s <= 0.1 + 1e-12]
    assert math.isclose(sigmas[0], 0.01) and math.isclose(sigmas[-1], 0.1)
    ops = [op_thz(channel(s), ratio, 1.0).probability for s in sigmas]
    _report("8d (rises with jitter)", all(a < b for a, b in zip(ops, ops[1:])),
            "OP over the fig10_n3 grid 1 cm..1 dm: "
            + " < ".join(f"{p:.3e}" for p in ops))

    lo = mc_op_thz(channel(sigmas[0]), ratio, 1.0, 0.0, 0.0, 4 * 10**6, 810)
    hi = mc_op_thz(channel(sigmas[-1]), ratio, 1.0, 0.0, 0.0, 4 * 10**6, 811)
    _report("8d (Monte Carlo reference)",
            lo.within(ops[0], 4.0) and hi.within(ops[-1], 4.0),
            f"OP(1 cm)={ops[0]:.4e} vs MC {lo.value:.4e} +- {lo.std_error:.1e}, "
            f"OP(1 dm)={ops[-1]:.4e} vs MC {hi.value:.4e} +- {hi.std_error:.1e}")
    span = ops[-1] / ops[0]
    span_mc = hi.value / lo.value
    span_se = span_mc * math.hypot(lo.std_error / lo.value,
                                   hi.std_error / hi.value)
    _report("8d (span)", abs(span - span_mc) <= 4.0 * span_se,
            f"OP(1 dm)/OP(1 cm) = {span:.1f} (10^{math.log10(span):.2f}) vs MC "
            f"{span_mc:.1f} +- {span_se:.1f}; OP <= 1 caps it at 1/OP(1 cm) = "
            f"10^{-math.log10(ops[0]):.2f} (paper's four orders: README, "
            "Acceptance criteria 1 and 8d)")
