"""Acceptance suite: one test per shipped guarantee, at the stated
tolerance and time budget.  Each test prints as its own pass/fail line
under pytest -v; the bodies restate the guarantee they pin down.
"""

import cmath
import json
import math
import re
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import magnitudes_to_alpha, synth_moments
from jumprec.cli import load_bench_spec, main as cli_main, run_bench
from jumprec.model import (
    AprioriBounds,
    JumpModel,
    phi_eval,
    smooth_catalog,
    synth_spectrum,
)
from jumprec.reconstruct import (
    ReconstructionConfig,
    full_reconstruct,
    jump_free_error,
)
from jumprec.solver import SamplePlan, build_annihilator, s_poly
from jumprec.stability import (
    c9_exact,
    decimated_cap_constant,
    fit_loglog_slope,
    method_gap_exact,
)
from stability_trials import run_cap_trials, run_misspec_sweep

SEED = 20260823

SWEEP_SPEC = {
    "model": {"d": 2, "jumps": [{"xi": 0.7, "a": [1.0, -0.4, 0.25]}]},
    "smooth": None,
    "noise": {"amp": 0.5, "decay": 4.0},
    "methods": ["full-decimated", "half-order", "eckhoff-original"],
    "M_values": [64, 128, 256, 512, 1024],
    "precision": "double",
    "seed": SEED,
    "bounds": {"J": np.pi / 2, "A": 4.0, "B": 0.05, "R": 10.0},
}

_bench_cache = {}


def bench_csv(tmp_path):
    if "csv" not in _bench_cache:
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP_SPEC) + "\n", encoding="utf-8")
        _bench_cache["csv"] = run_bench(load_bench_spec(str(path), 0))
    return _bench_cache["csv"]


def footer_slope(csv_text, method, column):
    pat = rf"# slope method={re.escape(method)} column={column} value=(\S+) "
    m = re.search(pat, csv_text)
    assert m, f"no slope footer for {method}/{column}"
    return float(m.group(1))


def test_c01_exact_single_jump_annihilation_residual():
    # 100 random single-jump models, order <= 4, magnitudes in [0.5, 2]:
    # the true node annihilates the moment combination to 1e-10 * scale
    # at every stride, in under 5 seconds
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(0, 5))
        xi = float(rng.uniform(-np.pi, np.pi))
        a = tuple(rng.uniform(0.5, 2.0, d + 1) * rng.choice([-1.0, 1.0], d + 1))
        alpha = magnitudes_to_alpha(a)
        for N in (8, 32, 128):
            plan = SamplePlan("decimated", d, (d + 2) * N)
            q = build_annihilator(synth_moments(xi, alpha, plan))
            val = abs(np.polyval(q, cmath.exp(-1j * xi * N)))
            worst = max(worst, val / np.max(np.abs(q)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_c02_alternating_binomial_power_sums_vanish():
    # sum_j (-1)^j C(d+1, j) (j+1)^l is exactly zero for l <= d and
    # first becomes nonzero at l = d+1, where it equals -(-1)^d (d+1)!
    t0 = time.monotonic()
    for d in range(11):
        for l in range(d + 1):
            total = sum(
                (-1) ** j * math.comb(d + 1, j) * (j + 1) ** l
                for j in range(d + 2)
            )
            assert total == 0
        top = sum(
            (-1) ** j * math.comb(d + 1, j) * (j + 1) ** (d + 1)
            for j in range(d + 2)
        )
        assert top == (-1) ** (d + 1) * math.factorial(d + 1)
        assert top != 0
    assert sum(
        (-1) ** j * math.comb(2, j) * (j + 1) ** 2 for j in range(3)
    ) == 2  # d = 1 spot value
    assert time.monotonic() - t0 < 1.0


def test_c03_limit_polynomial_family_structure():
    # the family obeys s_{i+1} = (d+2) s_i - w s_i' coefficient-exactly;
    # index one factors as (w-1)^d (w-(d+2)); the top member's roots are
    # real, at least 1, and pairwise separated
    for d in range(11):
        for i in range(d + 1):
            s_i = s_poly(i, d)
            stepped = [
                (d + 2) * c - (d + 1 - m) * c for m, c in enumerate(s_i)
            ]
            assert stepped == s_poly(i + 1, d)
        # integer convolution of (w-1)^d with (w - (d+2))
        base = [(-1) ** j * math.comb(d, j) for j in range(d + 1)]
        prod = [0] * (d + 2)
        for m, c in enumerate(base):
            prod[m] += c
            prod[m + 1] += -(d + 2) * c
        assert prod == s_poly(1, d)
    for d in range(1, 9):
        roots = np.roots(np.array(s_poly(d, d), dtype=float))
        assert np.max(np.abs(roots.imag)) <= 1e-8
        assert np.min(roots.real) >= 1.0 - 1e-8
        gaps = [
            abs(a - b)
            for i, a in enumerate(roots)
            for b in roots[i + 1 :]
        ]
        assert min(gaps) > 1e-6


def test_c04_pure_polynomial_pipeline_matrix():
    # every (order, jump-count) pair up to d=3, K=2 reconstructs from 256
    # modes at double precision to 1e-8 in location, 1e-6 in magnitudes,
    # all inside 10 seconds
    t0 = time.monotonic()
    bounds = AprioriBounds(J=np.pi / 2, A=6.0, B=0.05, R=10.0)
    worst_xi = worst_a = 0.0
    for d in range(4):
        for K in (1, 2):
            if K == 1:
                jumps = ((0.7, tuple([1.0, -0.5, 0.3, 0.2][: d + 1])),)
            else:
                jumps = (
                    (-1.3, tuple([1.0, 0.3, -0.2, 0.15][: d + 1])),
                    (0.7, tuple([0.8, -0.4, 0.25, -0.1][: d + 1])),
                )
            model = JumpModel(d, jumps)
            spec = synth_spectrum(model, None, 256)
            appr = full_reconstruct(
                spec, ReconstructionConfig(d=d, K=K, bounds=bounds)
            )
            for (xt, at), (xe, ae) in zip(model.jumps, appr.estimate.jumps):
                worst_xi = max(worst_xi, abs(xt - xe))
                worst_a = max(
                    worst_a, max(abs(p - q) for p, q in zip(at, ae))
                )
    elapsed = time.monotonic() - t0
    assert worst_xi <= 1e-8
    assert worst_a <= 1e-6
    assert elapsed < 10.0


def test_c05_convergence_orders_with_smooth_background():
    # single jump on an analytic background: location error decays at
    # least like M^-(d+2) up to half an order, magnitude l like
    # M^(l-(d+1)), off-jump sup error like M^-(d+1), for d = 1 and 2
    t0 = time.monotonic()
    Ms = [64, 128, 256, 512, 1024]
    exps = smooth_catalog("expsin")
    bounds = AprioriBounds(J=np.pi / 2, A=4.0, B=0.05, R=10.0)
    sup_const_check = None
    for d, mags in ((1, (1.0, -0.4)), (2, (1.0, -0.4, 0.25))):
        model = JumpModel(d, ((0.7, mags),))
        cfg = ReconstructionConfig(d=d, K=1, bounds=bounds)

        def truth(xs, model=model):
            return phi_eval(model, xs) + exps.evaluator(xs)

        err_xi, err_sup = [], []
        err_a = [[] for _ in range(d + 1)]
        for M in Ms:
            appr = full_reconstruct(synth_spectrum(model, exps, M), cfg)
            err_xi.append(abs(appr.estimate.locations[0] - 0.7))
            for l in range(d + 1):
                err_a[l].append(abs(appr.estimate.jumps[0][1][l] - mags[l]))
            sup = jump_free_error(appr, truth, bounds.J / 4, true_jumps=(0.7,))
            err_sup.append(sup)
            if d == 1 and M == 512:
                sup_const_check = sup * M**2
        arr = np.array(Ms, dtype=float)
        slope_xi, _ = fit_loglog_slope(arr, np.array(err_xi))
        assert slope_xi <= -(d + 2) + 0.5
        slope_sup, _ = fit_loglog_slope(arr, np.array(err_sup))
        assert slope_sup <= -(d + 1) + 0.5
        for l in range(d + 1):
            slope_l, _ = fit_loglog_slope(arr, np.array(err_a[l]))
            assert slope_l <= l - (d + 1) + 0.5
    # the d=1 sup error sits far below 1.0 * M^-2 in absolute terms too
    assert sup_const_check is not None and sup_const_check <= 1.0
    assert time.monotonic() - t0 < 60.0


def test_c05_rates_on_the_worst_case_background(tmp_path):
    # a poly-blend of order d+1 has |c_k| ~ k^-(d+2), the slowest decay
    # the paper admits.  The bench footer fits err_xi at least like
    # M^-(d+2) and err_a_l like M^(l-d-1), up to half an order, with the
    # blend at two centres inside the plateau (|x - 0.7| <= 0.9 J/3 = 0.47)
    # of the window for the jump at 0.7, so windowing keeps it.  err_sup
    # excludes J/4 = 0.39 around the jump: the blend at 0.95 lies inside
    # that zone, the blend at 1.13 outside it, and there err_sup must fall
    # at least like M^-(d+1)
    t0 = time.monotonic()
    for centre in (0.95, 1.13):
        for d, mags in ((1, [1.0, -0.4]), (2, [1.0, -0.4, 0.25])):
            spec = dict(
                SWEEP_SPEC,
                model={"d": d, "jumps": [{"xi": 0.7, "a": mags}]},
                smooth={"name": "poly-blend",
                        "args": {"order": d + 1, "amp": 0.5, "center": centre}},
                noise=None,
                methods=["full-decimated"],
                M_values=[64, 128, 256, 512, 1024, 2048, 4096, 8192],
            )
            path = tmp_path / f"blend_{centre}_d{d}.json"
            path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
            csv = run_bench(load_bench_spec(str(path), 0))
            assert "# failed" not in csv
            assert footer_slope(csv, "full-decimated", "err_xi") <= -(d + 2) + 0.5
            for l in range(d + 1):
                slope = footer_slope(csv, "full-decimated", f"err_a_{l}")
                assert slope <= l - (d + 1) + 0.5
            if abs(centre - 0.7) > SWEEP_SPEC["bounds"]["J"] / 4:
                assert footer_slope(csv, "full-decimated", "err_sup") <= -(d + 1) + 0.5
    assert time.monotonic() - t0 < 30.0


def test_c06_method_ordering_in_benchmark_sweep(tmp_path):
    # on the standard noisy sweep the full pipeline beats the half-order
    # variant by 0.25 in slope and the classical consecutive variant by
    # a full order; the classical variant itself stays above -2.5
    t0 = time.monotonic()
    csv = bench_csv(tmp_path)
    full = footer_slope(csv, "full-decimated", "err_xi")
    half = footer_slope(csv, "half-order", "err_xi")
    classical = footer_slope(csv, "eckhoff-original", "err_xi")
    assert full <= half - 0.25
    assert full <= classical - 1.0
    assert classical >= -2.5
    assert time.monotonic() - t0 < 90.0


def test_c06_benchmark_err_sup_follows_the_pointwise_rate(tmp_path):
    # the sweep's truth carries the k^-(d+2) noise it adds to the data, so
    # err_sup measures the reconstruction: full-decimated's pointwise error
    # falls at least like M^-(d+1), with 0.5 of slack in the fitted slope
    d = SWEEP_SPEC["model"]["d"]
    slope = footer_slope(bench_csv(tmp_path), "full-decimated", "err_sup")
    assert slope <= -(d + 1) + 0.5


def test_c07_indistinguishable_pair_round_trip(tmp_path):
    # a 2 pi (R/A) M^-(d+2) shift hides below the coefficient budget:
    # the emitted pair shares every retained coefficient and the recover
    # command produces byte-identical artifacts on both
    t0 = time.monotonic()
    runner = CliRunner()
    mp = tmp_path / "m.json"
    mp.write_text(
        json.dumps({"d": 1, "jumps": [{"xi": 0.7, "a": [1.0, 0.3]}]}) + "\n"
    )
    bp = tmp_path / "b.json"
    bp.write_text(
        json.dumps({"J": np.pi / 2, "A": 2.0, "B": 0.5, "R": 1.0}) + "\n"
    )
    outd = tmp_path / "pair"
    res = runner.invoke(
        cli_main,
        ["--out", str(outd), "adversarial", str(mp), "-M", "100",
         "--bounds", str(bp)],
    )
    assert res.exit_code == 0, res.output + res.stderr
    report = json.loads((outd / "report.json").read_text())
    assert report["delta"] == pytest.approx(
        2.0 * np.pi * 0.5 * 100.0**-3, rel=1e-12
    )
    assert report["delta"] == pytest.approx(3.1416e-6, rel=1e-4)
    assert report["max_coeff_discrepancy"] <= 1e-13
    assert report["max_scaled_correction"] < 1.0  # the declared budget R
    assert report["within_budget"] is True

    outputs = []
    for name in ("g", "h"):
        dest = tmp_path / f"rec_{name}.json"
        res = runner.invoke(
            cli_main,
            ["--out", str(dest), "recover", str(outd / f"{name}.json"),
             "-d", "1", "-K", "1", "--bounds", str(bp)],
        )
        assert res.exit_code == 0, res.output + res.stderr
        outputs.append(dest.read_bytes())
    assert outputs[0] == outputs[1]
    assert time.monotonic() - t0 < 5.0


def test_c08_stride_cap_holds_and_gap_identity_is_exact():
    # 200 random perturbed trials per order never violate the stride
    # cap, and the method-gap factor equals the exact rational ratio of
    # the refined constant to the cap constant for every order to 10
    t0 = time.monotonic()
    for d in (1, 2):
        rep = run_cap_trials(d, 200, seed=SEED)
        assert rep["trials"] == 200
        assert rep["violations"] == 0
        assert rep["worst_ratio"] < 1.0
    for d in range(11):
        assert method_gap_exact(d) == c9_exact(d) / decimated_cap_constant(d)
    assert time.monotonic() - t0 < 30.0


def test_c09_order_misspecification_costs_one_order():
    # running an order-2 solve on order-1 data under matched noise gives
    # the predicted M^-2 decay, visibly worse than the matched M^-3
    t0 = time.monotonic()
    mis = run_misspec_sweep(2, 1, [16, 32, 64, 128], seed=SEED)
    mat = run_misspec_sweep(1, 1, [16, 32, 64, 128], seed=SEED)
    assert mis["predicted_exponent"] == -2
    assert abs(mis["slope"] - (-2.0)) <= 0.75
    assert mat["slope"] <= -2.5
    assert mis["slope"] >= mat["slope"] + 0.5
    assert time.monotonic() - t0 < 60.0


def test_c10_benchmark_is_bitwise_reproducible(tmp_path):
    # identical spec, identical seed: the CSV must match byte for byte
    first = bench_csv(tmp_path)
    path = tmp_path / "sweep_again.json"
    path.write_text(json.dumps(SWEEP_SPEC) + "\n", encoding="utf-8")
    second = run_bench(load_bench_spec(str(path), 0))
    assert second == first
