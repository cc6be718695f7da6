"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.  Criterion 4's final threshold is not reachable
at the stated horizon -- the second-order term of the norming constants
decays like loglog(n)/log(n) -- so that test reports its diagnostics and
fails by design rather than loosening the stated tolerance; the README
discusses the analysis.
"""

import math
import time

import numpy as np
import pytest
from scipy import special, stats

import monoclt as mc
from monoclt import clt, ergodic as eg

pytestmark = pytest.mark.acceptance

BOOLE = mc.atomic([(-1.0, 0.5), (1.0, 0.5)])
CENTERED_BERN = mc.shift(mc.atomic([(0.0, 0.5), (1.0, 0.5)]), -0.5)
Z_GRID = clt.default_z_grid()
ARCSINE_TARGET = mc.f_eval(mc.ArcsineMap(), Z_GRID)


def report(cid: str, ok: bool, detail: str, t0: float, limit: float):
    dt = time.time() - t0
    verdict = "PASS" if ok and dt < limit else "FAIL"
    line = f"ACCEPT-{cid}: {verdict} ({detail}) [{dt:.1f}s/{limit:.0f}s]"
    print(line)
    assert dt < limit, f"runtime {dt:.1f}s exceeded the {limit:.0f}s budget"
    return line


def test_c01_one_step_scaled_map_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(101)
    zs = rng.uniform(-4, 4, 50) + 1j * rng.uniform(0.05, 4, 50)
    worst = 0.0
    for n in (1, 10, 100):
        M = mc.scaled_monotone_power(CENTERED_BERN, 1, math.sqrt(n) / 2.0)
        worst = max(worst, float(np.abs(mc.f_eval(M, zs) - (zs - 1.0 / (n * zs))).max()))
    ok = worst <= 1e-12
    report("01", ok, f"max closed-form deviation {worst:.2e} <= 1e-12", t0, 1.0)
    assert ok


def test_c02_squared_iterate_rate():
    t0 = time.time()
    ys = (10.2, 10.5, 10.8)
    devs = {}
    for n in (100, 1000, 10_000):
        B = math.sqrt(n) / 2.0
        M = mc.scaled_monotone_power(CENTERED_BERN, n, B)
        vals = mc.f_eval(M, 1j * np.asarray(ys))
        devs[n] = np.abs(vals * vals - ((1j * np.asarray(ys)) ** 2 - 2.0))
    ok_bound = all(devs[n].max() <= 5.0 / n for n in devs)
    ok_rate = all(devs[10 * n].max() <= 0.15 * devs[n].max() for n in (100, 1000))
    ok = ok_bound and ok_rate
    report("02", ok, f"dev(1e4)={devs[10_000].max():.2e} <= {5.0/10_000:.0e}, "
                     f"rate factor {devs[1000].max()/devs[100].max():.3f} <= 0.15", t0, 5.0)
    assert ok


def test_c03_monotone_clt_two_point():
    t0 = time.time()
    rows = {}
    for n in (100, 1000, 10_000):
        M = mc.scaled_monotone_power(BOOLE, n, math.sqrt(n))
        f_dev = float(np.abs(mc.f_eval(M, Z_GRID) - ARCSINE_TARGET).max())
        dens = mc.measure_from_map(M, eta=1e-2)
        rows[n] = (f_dev, mc.ks_distance(dens, mc.arcsine()))
    f_dev, ks = rows[10_000]
    # the CDF distance bottoms out at the smoothing floor of the inversion
    # itself; ordering below that floor is measurement noise
    floor = mc.ks_distance(mc.measure_from_map(mc.ArcsineMap(), eta=1e-2),
                           mc.arcsine())
    orderings_agree = all(
        (rows[a][1] <= 1.5 * floor and rows[b][1] <= 1.5 * floor)
        or ((rows[a][0] > rows[b][0]) == (rows[a][1] > rows[b][1]))
        for a, b in ((100, 1000), (1000, 10_000)))
    ok = f_dev <= 0.02 and ks <= 0.03 and orderings_agree
    report("03", ok, f"sup-grid dev {f_dev:.2e} <= 0.02, KS {ks:.3f} <= 0.03, "
                     f"diagnostics ordered consistently above the "
                     f"{floor:.3f} smoothing floor: {orderings_agree}", t0, 30.0)
    assert ok


def test_c04_infinite_variance_lattice_tail_clt():
    t0 = time.time()
    lab = eg.lattice_tail_lab(10_000)
    ns = (100, 1000, 10_000)
    devs = []
    for n in ns:
        B = math.sqrt(n * math.log(n))
        M = mc.DilatedMap(mc.IterateMap(lab.map, n), 1.0 / B)
        devs.append(float(np.abs(mc.f_eval(M, Z_GRID) - ARCSINE_TARGET).max()))
    monotone_ok = all(devs[i + 1] <= 1.2 * devs[i] for i in range(len(devs) - 1))
    # diagnostic with the ratio-selected constants, for the record
    Bsel = clt.sigma_criterion_constants(lab.sigma, [10_000])
    Msel = mc.DilatedMap(mc.IterateMap(lab.map, 10_000), 1.0 / float(Bsel.values[0]))
    dev_sel = float(np.abs(mc.f_eval(Msel, Z_GRID) - ARCSINE_TARGET).max())
    ok = monotone_ok and devs[-1] <= 0.05
    report("04", ok,
           f"devs {[round(d, 3) for d in devs]} monotone(20% slack)={monotone_ok}; "
           f"final {devs[-1]:.3f} vs 0.05 (ratio-selected constants give {dev_sel:.3f})",
           t0, 120.0)
    assert monotone_ok
    assert devs[-1] <= 0.05, (
        "known-red criterion: with sqrt(n log n) constants the effective "
        "variance of the rescaled powers carries a loglog(n)/log(n) "
        "correction (~1.35 instead of 1 at n=1e4), which alone forces a "
        "sup-grid deviation near 0.2; even constants selected by the "
        f"smoothed-variance ratio rule leave {dev_sel:.3f} > 0.05 because "
        "the slowly varying part still moves across the test grid")


def test_c05_same_constants_classical_column():
    t0 = time.time()
    n = 2**10
    B = math.sqrt(n)
    power = mc.classical_power(BOOLE, n)
    scaled = mc.dilate(power, 1.0 / B)
    ks = mc.ks_distance(scaled, mc.normal())
    # independent oracle: binomial CDF against the Gaussian CDF at the atoms
    ks_oracle = 0.0
    kk = np.arange(n + 1)
    atoms = (2 * kk - n) / B
    bin_cdf = stats.binom.cdf(kk, n, 0.5)
    for grid_cdf, offset in ((bin_cdf, 0.0), (np.concatenate(([0.0], bin_cdf[:-1])), 0.0)):
        ks_oracle = max(ks_oracle, float(np.abs(grid_cdf - special.ndtr(atoms)).max()))
    ok = ks <= 0.02 and ks_oracle <= 0.02 and ks <= ks_oracle + 1e-12
    report("05", ok, f"KS {ks:.4f} <= 0.02 (step-function oracle {ks_oracle:.4f})",
           t0, 30.0)
    assert ok


def test_c06_norming_selection_ratio():
    t0 = time.time()
    ns = np.unique(np.geomspace(1000, 10_000, 12).astype(np.int64))
    cases = {}
    for name, sigma, B in (
            ("two-point", mc.atomic([(0.0, 1.0)], is_probability=False),
             clt.NormingSequence(ns, np.sqrt(ns), "variance")),
            ("coin", mc.atomic([(0.0, 0.25)], is_probability=False),
             clt.NormingSequence(ns, np.sqrt(ns) / 2.0, "variance"))):
        rr = clt.norming_ratio_check(sigma, B, y=1.0)
        cases[name] = (rr.ratios.min(), rr.ratios.max())
    lab = eg.lattice_tail_lab(10_000)
    Bsel = clt.sigma_criterion_constants(lab.sigma, ns)
    rr = clt.norming_ratio_check(lab.sigma, Bsel, y=1.0)
    cases["lattice-tail"] = (rr.ratios.min(), rr.ratios.max())
    ok = all(0.9 <= lo and hi <= 1.1 for lo, hi in cases.values())
    exact = max(abs(v - 1.0) for lo_hi in cases.values() for v in lo_hi)
    report("06", ok, f"ratios within [0.9, 1.1] for {list(cases)}; "
                     f"worst |r-1| = {exact:.2e}", t0, 10.0)
    assert ok


def test_c07_representation_roundtrip():
    t0 = time.time()
    rng = np.random.default_rng(107)
    zs = rng.uniform(-5, 5, 100) + 1j * rng.uniform(0.05, 5, 100)
    worst = 0.0
    for _ in range(200):
        k = rng.integers(2, 13)
        pos = np.sort(rng.uniform(-5, 5, k))
        while np.any(np.diff(pos) < 1e-3):
            pos = np.sort(rng.uniform(-5, 5, k))
        w = rng.uniform(0.05, 1.0, k)
        m = mc.AtomicMeasure(pos, w / w.sum())
        F1 = mc.nevanlinna_synthesize(mc.nevanlinna_extract(m))
        # against 1/G itself: a measure's map steps by these same partial fractions
        worst = max(worst, float(np.abs(mc.f_eval(F1, zs)
                                        - 1.0 / mc.cauchy_eval(m, zs)).max()))
    ok = worst <= 1e-10
    report("07", ok, f"200 measures, 100 points: worst roundtrip {worst:.2e} <= 1e-10",
           t0, 10.0)
    assert ok


def test_c08_free_convolution_against_transform_oracle():
    t0 = time.time()
    zline = mc.transforms.default_grid() + 1e-2j
    _, _, iters = mc.subordination_eval(BOOLE, BOOLE, zline, tol=1e-13)
    h = 1.25e-4
    grid = np.arange(-2.5, 2.5 + h / 2, h)
    dens = mc.free_density(BOOLE, BOOLE, grid=grid, eta=2.5e-4, tol=1e-13,
                           maxiter=100_000)
    ks = mc.ks_distance(dens, mc.arcsine(math.sqrt(2.0)))
    ok = ks <= 2e-3 and iters <= 200
    report("08", ok, f"KS {ks:.2e} <= 2e-3, iterations at Im z = 1e-2: {iters} <= 200",
           t0, 30.0)
    assert ok


def test_c09_lebesgue_preservation():
    t0 = time.time()
    rng = np.random.default_rng(109)
    worst = 0.0
    maps = [eg.boole_map()]
    for k in (3, 5):
        pos = np.sort(rng.uniform(-4, 4, k))
        while np.any(np.diff(pos) < 0.2):
            pos = np.sort(rng.uniform(-4, 4, k))
        sigma = mc.AtomicMeasure(pos, rng.uniform(0.1, 1.0, k), is_probability=False)
        maps.append(eg.boundary_map(mc.NevanlinnaRep(rng.normal(), sigma)))
    for T in maps:
        ys = rng.normal(0.0, 5.0, 100)
        worst = max(worst, eg.preservation_check(T, ys))
    ok = worst <= 1e-8
    report("09", ok, f"max |sum 1/T' - 1| = {worst:.2e} <= 1e-8 over "
                     f"{len(maps)} maps x 100 points", t0, 5.0)
    assert ok


def test_c10_recurrence_sum_growth():
    t0 = time.time()
    s = eg.aaronson_sums(BOOLE, 100_000)
    assert s.partial_sums[0] == 0.5
    Ns = np.unique(np.geomspace(1000, 100_000, 30).astype(np.int64))
    vals = s.partial_sums[Ns - 1]
    root_n = np.sqrt(Ns)
    alpha = float((vals * root_n).sum() / (root_n * root_n).sum())
    rel_rmse = float(np.sqrt(np.mean((vals - alpha * root_n) ** 2))
                     / np.mean(np.abs(vals)))
    sd = eg.aaronson_sums(mc.point_mass(1.0), 100_000)
    gap = float(sd.partial_sums[-1] - sd.partial_sums[9_999])
    ok = rel_rmse < 0.05 and gap < 1e-3
    report("10", ok, f"sqrt-fit alpha={alpha:.3f} rel RMSE {rel_rmse:.3f} < 0.05; "
                     f"first term 0.5 exact; degenerate tail gap {gap:.1e} < 1e-3",
           t0, 10.0)
    assert ok


def test_c11_norming_divergence_fits():
    t0 = time.time()
    lab = eg.lattice_tail_lab(100, N=1_000_000)
    rep = eg.conservativity_criterion(lab.sigma, 1_000_000, B=lab.B)
    sel = rep.ns >= 1000
    ns, s = rep.ns[sel], rep.partial_sums[sel]
    X = np.column_stack([np.log(np.log(ns)), np.ones(len(ns))])
    coef, *_ = np.linalg.lstsq(X, s, rcond=None)
    rmse_ll = float(np.sqrt(np.mean((s - X @ coef) ** 2)) / np.mean(np.abs(s)))
    rep2 = eg.conservativity_criterion(BOOLE, 1_000_000)
    sel2 = rep2.ns >= 1000
    ns2, s2 = rep2.ns[sel2], rep2.partial_sums[sel2]
    X2 = np.column_stack([np.log(ns2), np.ones(len(ns2))])
    coef2, *_ = np.linalg.lstsq(X2, s2, rcond=None)
    rmse_l = float(np.sqrt(np.mean((s2 - X2 @ coef2) ** 2)) / np.mean(np.abs(s2)))
    ok = (rmse_ll < 0.10 and rmse_l < 0.10
          and rep.verdict.startswith("divergent (loglog)")
          and rep2.verdict.startswith("divergent (log)"))
    report("11", ok, f"loglog fit rel RMSE {rmse_ll:.4f} < 0.10 "
                     f"(verdict: {rep.verdict}); log fit rel RMSE {rmse_l:.4f} "
                     f"(verdict: {rep2.verdict})", t0, 5.0)
    assert ok


def test_c12_hopf_ratio_diagnostic():
    # stochastic diagnostic with a fixed seed, not a sharp numerical gate
    t0 = time.time()
    rng = np.random.default_rng(112)
    x0 = rng.uniform(-2.0, 2.0, 8)
    res = eg.hopf_ratio(eg.boole_map(), "cauchy", "gauss", x0, 10_000_000)
    med = float(np.median(res.ratios[-1]))
    rel = abs(med - res.target) / res.target
    ok = rel <= 0.25
    report("12", ok, f"median ratio {med:.4f} vs target {res.target:.4f} "
                     f"(rel dev {rel:.3f} <= 0.25, 8 starts, N=1e7)", t0, 120.0)
    assert ok


def test_c13_iterate_drift_bound():
    t0 = time.time()
    n = 10_000
    lab = eg.lattice_tail_lab(10_000)
    B_lab = float(clt.sigma_criterion_constants(lab.sigma, [n]).values[0])
    corpus = [(BOOLE, math.sqrt(n)), (CENTERED_BERN, math.sqrt(n) / 2.0),
              (lab.map, B_lab)]
    js = [0, n // 4, n // 2, n]
    violations = 0
    worst_margin = 0.0
    for src, B in corpus:
        for y in (10.5, 11.0, 15.0):
            rep = clt.drift_bound_check(src, n, y, js, B)
            violations += int(rep.violations.sum())
            with np.errstate(invalid="ignore", divide="ignore"):
                margins = rep.deviations[1:] / rep.bounds[1:]
            worst_margin = max(worst_margin, float(np.nanmax(margins)))
    ok = violations == 0
    report("13", ok, f"0 violations of the 10j/n drift bound over 3 measures x "
                     f"3 heights x {len(js)} checkpoints (worst dev/bound "
                     f"{worst_margin:.3f})", t0, 30.0)
    assert ok
