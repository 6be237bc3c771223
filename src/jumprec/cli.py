"""Command-line surface over synthesis, recovery, benchmarking,
adversarial demonstration and stability-bound queries.

All artifacts are files (JSON or CSV); every command is deterministic
under fixed inputs and seed.  Exit codes: 0 success, 2 model/contract
violation, 3 numeric failure, 4 I/O or parse failure.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import click
import numpy as np

from .errors import (
    ModelError,
    NumericError,
    read_int,
    read_json,
    read_real,
    write_json,
)
from .localize import localize_jump, make_bump, prony_order0
from .model import (
    AprioriBounds,
    JumpModel,
    SmoothPart,
    adversarial_pair,
    load_model,
    phi_coeff_array,
    phi_eval,
    shift_jumps,
    smooth_catalog,
    synth_spectrum,
)
from .precision import parse_precision, recover_single_jump_mp
from .reconstruct import (
    Approximant,
    ReconstructionConfig,
    _approximant,
    _priors,
    check_leading_floor,
    full_reconstruct,
    jump_free_error,
    pipeline_geometry,
)
from .solver import half_order_recover
from .spectrum import (
    FourierSpectrum,
    SamplePlan,
    _from_positive_half,
    circular_distance,
    load_spectrum,
    modulus,
    plan_values,
    save_spectrum,
    weight_moments,
)
from .stability import (
    ERROR_FLOOR,
    PronyConfig,
    c9_bound,
    decimated_cap,
    fit_loglog_slope,
    method_gap_factor,
    misspec_exponent,
    node_perturbation_bound,
)

_METHODS = ("full-decimated", "half-order", "eckhoff-original")

# the adversarial and bounds reports are written for people to read
_REPORT_FORMAT = {"indent": 2, "sort_keys": True}

_DOUBLE_ONLY = (
    "benchmark sweeps run in double precision only; the coefficients arrive "
    "as doubles, and a solve in more digits recovers no digit they lack"
)


def _guard(fn):
    """Translate library errors into the documented exit codes."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ModelError as exc:
            click.echo(f"model error: {exc}", err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo(f"numeric error: {exc}", err=True)
            sys.exit(3)
        except (OSError, ValueError) as exc:
            click.echo(f"io error: {exc}", err=True)
            sys.exit(4)

    return inner


def _require_out(ctx) -> str:
    out = ctx.obj.get("out")
    if out is None:
        raise ModelError("this command writes an artifact; pass --out PATH")
    return out


def _load_bounds(path) -> AprioriBounds:
    return AprioriBounds.from_json_dict(read_json(path))


def _smooth_part(name, args) -> SmoothPart:
    """Catalog smooth part from JSON arguments; malformed ones are a ModelError."""
    if not isinstance(args, dict):
        raise ModelError(f"smooth-part arguments must be a JSON object, got {args!r}")
    try:
        return smooth_catalog(name, **args)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"bad {name!r} smooth-part arguments {args}: {exc}") from exc


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return repr(float(v))


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--precision", default="double", show_default=True,
    help="Arithmetic of recover: 'double' or 'extended:<digits>' with >= 50 "
         "digits. bench runs in double only.",
)
@click.option(
    "--seed", default=0, show_default=True,
    type=click.IntRange(0, 2**64 - 1),
    help="Fallback RNG seed (u64); a benchmark spec's own seed takes priority.",
)
@click.option(
    "--out", default=None, type=click.Path(),
    help="Output path: file for synth/recover/bench/bounds, directory for adversarial.",
)
@click.pass_context
def main(ctx, precision, seed, out):
    """Reconstruct piecewise-smooth functions from Fourier coefficients.

    Benchmark CSV columns: method, M, err_xi, err_a_0..err_a_d, err_sup,
    ratio_logerr_logM.  Footer comment lines ('#') carry, per method, a
    fitted log-log slope for every error column, and mark rows that failed
    outright or sit at the rounding floor (100 eps, times M^l for
    err_a_l) and are left out of the fit.
    """
    try:
        mode = parse_precision(precision)
    except ModelError as exc:
        click.echo(f"model error: {exc}", err=True)
        sys.exit(2)
    ctx.obj = {"precision": mode, "seed": seed, "out": out}


@main.command()
@click.argument("model_path", type=click.Path())
@click.option(
    "--smooth", "smooth_name", default="zero", show_default=True,
    help="Smooth-part catalog entry: zero, sin, expsin, poly-blend.",
)
@click.option(
    "--smooth-args", default="{}", show_default=True,
    help="JSON object of smooth-part parameters.",
)
@click.option(
    "-M", "--modes", "modes", required=True, type=click.IntRange(min=1),
    help="Highest retained frequency; the file stores c_-M..c_M.",
)
@click.pass_context
@_guard
def synth(ctx, model_path, smooth_name, smooth_args, modes):
    """Write the first M Fourier coefficients of model + smooth part."""
    out = _require_out(ctx)
    model = load_model(model_path)
    try:
        args = json.loads(smooth_args)
    except json.JSONDecodeError as exc:
        raise ModelError(f"--smooth-args must be a JSON object: {exc}") from exc
    smooth = _smooth_part(smooth_name, args)
    spec = synth_spectrum(model, smooth, modes)
    save_spectrum(out, spec)
    click.echo(f"wrote spectrum with M={modes} to {out}")


def _recover_extended(spec, cfg, digits) -> Approximant:
    # single-jump algebraic solve at high working precision; windowing
    # and detection stay in double.  On data that arrive as doubles its
    # worst |a_l| error measured within a factor of 2 of the double solve,
    # neither side winning consistently: the input's rounding, not the
    # solve's arithmetic, sets the error floor
    if cfg.K != 1:
        raise ModelError(
            "extended precision supports single-jump recovery only (K=1)"
        )
    # detection still certifies, as in full_reconstruct, that the data carry
    # a jump when no prior is given; without a window its coarse location is
    # not needed
    _priors(spec, cfg)
    M_eff = pipeline_geometry(spec.M, cfg.d, cfg.bounds.J)[0]
    # the half-order location, as in full_reconstruct, is what makes the
    # decimated root disambiguation safe; a coarse prior is not
    half = SamplePlan("consecutive", cfg.d // 2, M_eff)
    prior = half_order_recover(weight_moments(half, plan_values(spec, half))).xi
    est = recover_single_jump_mp(spec, cfg.d, prior, M=M_eff, digits=digits)
    check_leading_floor([est], cfg)
    return _approximant(spec, [est], {**cfg.to_json_dict(), "precision_digits": digits})


@main.command()
@click.argument("spectrum_path", type=click.Path())
@click.option("-d", "--order", "order", required=True, type=click.IntRange(min=0),
              help="Smoothness order: magnitudes a_0..a_d per jump.")
@click.option("-K", "--jumps", "jumps", required=True, type=click.IntRange(min=1),
              help="Number of jumps to recover.")
@click.option("--bounds", "bounds_path", required=True, type=click.Path(),
              help="JSON file with the a-priori constants J, A, B, R.")
@click.option("--priors", default=None,
              help="JSON list of K approximate jump locations; replaces detection.")
@click.pass_context
@_guard
def recover(ctx, spectrum_path, order, jumps, bounds_path, priors):
    """Estimate jumps and the corrected smooth spectrum from coefficients.

    Writes one JSON record to --out: the recovered model, the corrected
    smooth spectrum and provenance (the run's config).  The record is
    encoded whole, then written in one call, and only after the recovery
    succeeds; its doubles read back bit for bit.
    """
    out = _require_out(ctx)
    mode, digits = ctx.obj["precision"]
    spec = load_spectrum(spectrum_path)
    bounds = _load_bounds(bounds_path)
    pri = None
    if priors is not None:
        try:
            parsed = json.loads(priors)
        except json.JSONDecodeError as exc:
            raise ModelError(f"--priors must be a JSON list of locations: {exc}") from exc
        if not isinstance(parsed, list):
            raise ModelError("--priors must be a JSON list of locations")
        pri = tuple(parsed)
    cfg = ReconstructionConfig(d=order, K=jumps, bounds=bounds, priors=pri)
    if mode == "extended":
        appr = _recover_extended(spec, cfg, digits)
    else:
        appr = full_reconstruct(spec, cfg)
    write_json(out, appr)
    locs = ", ".join(f"{x:.12g}" for x in appr.estimate.locations)
    click.echo(f"recovered {jumps} jump(s) at [{locs}] -> {out}")


@dataclass(frozen=True)
class BenchmarkSpec:
    """Validated contents of a benchmark sweep file."""

    model: JumpModel
    smooth: Optional[SmoothPart]
    noise_amp: float
    noise_decay: float
    methods: tuple
    M_values: tuple
    seed: int
    bounds: AprioriBounds


def _default_bounds(model: JumpModel, noise_amp: float) -> AprioriBounds:
    locs = model.locations
    if len(locs) >= 2:
        gaps = [
            circular_distance(a, b)
            for i, a in enumerate(locs) for b in locs[i + 1:]
        ]
        J = min(min(gaps), np.pi / 2)
    else:
        J = np.pi / 2
    lead = min(modulus(j[1][0]) for j in model.jumps)
    return AprioriBounds(
        J=float(J),
        A=2.0 * model.magnitude_sum(),
        B=0.5 * lead,
        R=max(float(noise_amp), 1.0),
    )


def load_bench_spec(path, fallback_seed: int = 0) -> BenchmarkSpec:
    """Parse and validate a benchmark sweep description.

    JSON shape: {"model": {...}, "smooth": {"name", "args"}|null,
    "noise": {"amp", "decay"}|null, "methods": [...], "M_values": [...],
    "precision": "double", "seed": int, "bounds": {"J","A","B","R"}}.
    smooth, noise, precision, seed and bounds are optional; bounds default
    to values derived from the model.  Sweeps run in double precision only.
    Noise whose largest term amp k^-decay, k <= max(M_values), is past the
    double range is a ModelError.
    """
    data = read_json(path)
    if not isinstance(data, dict) or "model" not in data:
        raise ModelError("benchmark spec must be a JSON object with a 'model'")
    model = JumpModel.from_json_dict(data["model"])
    if model.K < 1:
        raise ModelError("benchmark model needs at least one jump")

    sm = data.get("smooth")
    smooth = None
    if sm is not None:
        if not isinstance(sm, dict) or "name" not in sm:
            raise ModelError("'smooth' must be {\"name\": ..., \"args\": {...}}")
        smooth = _smooth_part(sm["name"], sm.get("args", {}))

    nz = data.get("noise")
    noise_amp, noise_decay = 0.0, float(model.order + 2)
    if nz is not None:
        try:
            noise_amp = read_real(nz["amp"], "amp")
            noise_decay = read_real(nz.get("decay", model.order + 2), "decay")
        except (KeyError, TypeError, ModelError) as exc:
            raise ModelError(f"'noise' needs numeric amp (and decay): {exc}") from exc
        if noise_amp < 0.0:
            raise ModelError(f"'noise' needs amp >= 0, got {nz}")

    methods = data.get("methods", list(_METHODS))
    if not isinstance(methods, list) or not methods:
        raise ModelError(f"'methods' must be a non-empty list, got {methods!r}")
    methods = tuple(methods)
    bad = [m for m in methods if m not in _METHODS]
    if bad:
        raise ModelError(f"unknown methods {bad}; choose from {list(_METHODS)}")
    if len(set(methods)) != len(methods):
        raise ModelError(f"duplicate methods in {list(methods)}")

    try:
        M_values = tuple(sorted(read_int(m, "M") for m in data["M_values"]))
    except (KeyError, TypeError, ModelError) as exc:
        raise ModelError(f"'M_values' must be a list of integers: {exc}") from exc
    dups = sorted({M for M in M_values if M_values.count(M) > 1})
    if dups:
        raise ModelError(f"duplicate M values {dups} in {list(M_values)}")
    if len(M_values) < 3:
        raise ModelError(f"need >= 3 M values for slope fitting, got {len(M_values)}")
    if M_values[-1] < 10 * M_values[0]:
        raise ModelError(
            f"M values must span a decade: {M_values[0]}..{M_values[-1]}"
        )
    floor_M = (model.order + 2) * model.K
    if M_values[0] < floor_M:
        raise ModelError(
            f"smallest M={M_values[0]} below (d+2)K = {floor_M}"
        )
    # the noise's largest term, amp k^-decay at k = 1 or at the largest M,
    # must be a double
    if noise_amp > 0.0:
        try:
            peak = noise_amp * max(1.0, float(M_values[-1]) ** -noise_decay)
        except OverflowError:
            peak = math.inf
        if not math.isfinite(peak):
            raise ModelError(
                f"'noise' with amp {noise_amp!r} and decay {noise_decay!r}: "
                f"amp k^-decay passes the double range at k = {M_values[-1]}"
            )

    precision = data.get("precision", "double")
    if precision != "double":
        raise ModelError(f"benchmark precision {precision!r}: {_DOUBLE_ONLY}")
    seed = read_int(data.get("seed", fallback_seed), "seed")
    if not 0 <= seed < 2**64:
        raise ModelError(f"seed must be a u64, got {seed}")

    if "bounds" in data and data["bounds"] is not None:
        bounds = AprioriBounds.from_json_dict(data["bounds"])
    else:
        bounds = _default_bounds(model, noise_amp)

    return BenchmarkSpec(
        model=model, smooth=smooth, noise_amp=noise_amp,
        noise_decay=noise_decay, methods=methods, M_values=M_values,
        seed=seed, bounds=bounds,
    )


def _noisy_spectrum(bs: BenchmarkSpec, M: int):
    # the data at M and its perturbation (None without noise); noise is a
    # function of (seed, M) only, so every method at a given M sees the
    # identical perturbed data
    spec = synth_spectrum(bs.model, bs.smooth, M)
    if bs.noise_amp == 0.0:
        return spec, None
    rng = np.random.default_rng((bs.seed, M))
    ks = np.arange(1, M + 1, dtype=float)
    pert = (
        bs.noise_amp * ks ** (-bs.noise_decay)
        * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=M))
    )
    coeffs = _from_positive_half(0.0, pert)
    noise = FourierSpectrum(M, coeffs, real_valued=True)
    data = FourierSpectrum(M, spec.coeffs + coeffs, real_valued=spec.real_valued)
    return data, noise


def _variant_approximant(bs: BenchmarkSpec, method: str, spec: FourierSpectrum):
    """Run one method variant on spec and return its Approximant."""
    d, K = bs.model.order, bs.model.K
    if method == "full-decimated":
        return full_reconstruct(spec, ReconstructionConfig(d=d, K=K, bounds=bs.bounds))
    # baselines: detection, a window when K > 1 and one consecutive solve,
    # at half order or (Eckhoff's original) at full order
    order = d // 2 if method == "half-order" else d
    M_eff, width, degree = pipeline_geometry(spec.M, d, bs.bounds.J)
    plan = SamplePlan("consecutive", order, M_eff)
    estimates = []
    for prior in prony_order0(spec, K):
        if K > 1:
            window = make_bump(prior, width, spec.M, degree)
            values = localize_jump(spec, window, plan.indices)
        else:
            values = plan_values(spec, plan)
        estimates.append(half_order_recover(weight_moments(plan, values)))
    return _approximant(spec, estimates, {"method": method})


def _bench_point(bs: BenchmarkSpec, method: str, M: int):
    """One CSV row: errors of `method` on the (seed, M) data realization."""
    d = bs.model.order
    spec, noise = _noisy_spectrum(bs, M)
    appr = _variant_approximant(bs, method, spec)
    order = appr.estimate.order

    err_xi = 0.0
    err_a = [0.0] * (order + 1) + [float("nan")] * (d - order)
    for xi_true, mags_true in bs.model.jumps:
        xi, mags = min(
            appr.estimate.jumps, key=lambda j: circular_distance(j[0], xi_true)
        )
        err_xi = max(err_xi, circular_distance(xi, xi_true))
        for l in range(order + 1):
            err_a[l] = max(err_a[l], abs(mags[l] - mags_true[l]))

    if noise is not None:
        # by linearity, taking the noise out of the corrected spectrum
        # scores against the noise-free truth what holding it in the truth
        # would, and keeps the evaluation on jump_free_error's grid
        psi = appr.corrected_spectrum
        appr = replace(appr, corrected_spectrum=FourierSpectrum(
            psi.M, psi.coeffs - noise.coeffs, psi.real_valued))

    def truth(xs):
        vals = phi_eval(bs.model, xs)
        if bs.smooth is not None:
            vals = vals + bs.smooth.evaluator(xs)
        return vals

    err_sup = jump_free_error(
        appr, truth, bs.bounds.J / 4.0, true_jumps=bs.model.locations
    )
    ratio = math.log(err_xi) / math.log(M) if err_xi > 0 else float("nan")
    return [err_xi] + err_a + [err_sup, ratio]


def run_bench(bs: BenchmarkSpec) -> str:
    """Execute the sweep and render the full CSV text (rows + footer)."""
    d = bs.model.order
    pairs = [(m, M) for m in bs.methods for M in bs.M_values]

    def worker(pair):
        method, M = pair
        try:
            return pair, _bench_point(bs, method, M), None
        except (ModelError, NumericError, ValueError,
                np.linalg.LinAlgError) as exc:
            return pair, None, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=min(8, len(pairs))) as pool:
        results = dict()
        for pair, row, err in pool.map(worker, pairs):
            results[pair] = (row, err)

    cols = ["err_xi"] + [f"err_a_{l}" for l in range(d + 1)] + ["err_sup"]
    # rounding in a_l grows like eps M^l, so its floor scales with M^l
    floor_powers = [0] + list(range(d + 1)) + [0]
    lines = ["method,M," + ",".join(cols) + ",ratio_logerr_logM"]
    failures = []
    for method, M in pairs:
        row, err = results[(method, M)]
        if err is not None:
            failures.append((method, M, err))
            row = [float("nan")] * (len(cols) + 1)
        lines.append(f"{method},{M}," + ",".join(_fmt(v) for v in row))

    for method in bs.methods:
        done = [M for M in bs.M_values if results[(method, M)][1] is None]
        Ms = np.array(done, dtype=float)
        for idx, (col, power) in enumerate(zip(cols, floor_powers)):
            errs = [results[(method, M)][0][idx] for M in done]
            slope, used = fit_loglog_slope(Ms, errs, floor=ERROR_FLOOR * Ms**power)
            for M, e, ok in zip(done, errs, used):
                # a column the method does not estimate (NaN) hits no floor
                if not ok and not math.isnan(e):
                    lines.append(
                        f"# floor-excluded method={method} M={M} column={col}"
                    )
            lines.append(
                f"# slope method={method} column={col} value={_fmt(slope)} "
                f"rows_used={int(np.sum(used))}"
            )
    for method, M, err in failures:
        lines.append(f"# failed method={method} M={M} reason={err}")
    return "\n".join(lines) + "\n"


@main.command()
@click.argument("spec_path", type=click.Path())
@click.pass_context
@_guard
def bench(ctx, spec_path):
    """Convergence sweep over methods and M values; writes a CSV report."""
    mode, digits = ctx.obj["precision"]
    if mode != "double":
        raise ModelError(f"--precision {mode}:{digits}: {_DOUBLE_ONLY}")
    out = _require_out(ctx)
    bs = load_bench_spec(spec_path, ctx.obj["seed"])
    text = run_bench(bs)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    click.echo(
        f"wrote {len(bs.methods) * len(bs.M_values)} benchmark rows to {out}"
    )


@main.command()
@click.argument("model_path", type=click.Path())
@click.option("-M", "--modes", "modes", required=True, type=click.IntRange(min=1),
              help="Number of retained coefficients on each side of zero.")
@click.option("--bounds", "bounds_path", required=True, type=click.Path(),
              help="JSON file with the a-priori constants J, A, B, R.")
@click.pass_context
@_guard
def adversarial(ctx, model_path, modes, bounds_path):
    """Emit two admissible spectra no method can tell apart from M modes."""
    out_dir = _require_out(ctx)
    model = load_model(model_path)
    bounds = _load_bounds(bounds_path)
    g, h, delta = adversarial_pair(model, modes, bounds)
    os.makedirs(out_dir, exist_ok=True)
    save_spectrum(os.path.join(out_dir, "g.json"), g)
    save_spectrum(os.path.join(out_dir, "h.json"), h)

    shifted = shift_jumps(model, delta)
    diff = phi_coeff_array(model, modes) - phi_coeff_array(shifted, modes)
    ks = np.concatenate([np.arange(-modes, 0), np.arange(1, modes + 1)])
    vals = np.concatenate([diff[:modes], diff[modes + 1:]])
    max_scaled = float(
        np.max(np.abs(vals) * np.abs(ks).astype(float) ** (model.order + 2))
    )
    report = {
        "M": modes,
        "d": model.order,
        "delta": delta,
        "jump_shift": "every location moved by +delta",
        "max_coeff_discrepancy": float(np.max(np.abs(g.coeffs - h.coeffs))),
        "max_scaled_correction": max_scaled,
        "correction_budget_R": bounds.R,
        "within_budget": bool(max_scaled < bounds.R),
    }
    write_json(os.path.join(out_dir, "report.json"), report, **_REPORT_FORMAT)
    click.echo(
        f"delta = {delta:.6e}; wrote g.json, h.json, report.json to {out_dir}"
    )


_BOUND_OPS = ("node-perturbation", "decimated-cap", "c9", "method-gap",
              "misspec-exponent")


def _eval_bound(query: dict) -> dict:
    if not isinstance(query, dict) or "op" not in query:
        raise ModelError("each bound query must be an object with an 'op' key")
    op = query["op"]
    params = {k: v for k, v in query.items() if k != "op"}

    def integer(key):
        return read_int(params[key], key)

    def real(key):
        return read_real(params[key], key)

    try:
        if op == "node-perturbation":
            cfg = PronyConfig(
                K=integer("K"),
                multiplicities=tuple(
                    read_int(m, "multiplicities") for m in params["multiplicities"]
                ),
                sigma=integer("sigma"),
                node_gap=real("node_gap"),
                eps=real("eps"),
            )
            value = node_perturbation_bound(
                cfg, read_int(params.get("j", 0), "j"), real("a_lead")
            )
        elif op == "decimated-cap":
            value = decimated_cap(integer("d"), real("R"), real("B"), integer("N"))
        elif op == "c9":
            value = c9_bound(integer("d"))
        elif op == "method-gap":
            value = method_gap_factor(integer("d"))
        elif op == "misspec-exponent":
            value = float(misspec_exponent(integer("d_used"), integer("d_true")))
        else:
            raise ModelError(
                f"unknown bound op {op!r}; choose from {list(_BOUND_OPS)}"
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(
            f"bound query {op!r} missing or invalid parameter: {exc}"
        ) from exc
    return {"bound": float(value), "inputs": {"op": op, **params}}


@main.command()
@click.argument("query_path", type=click.Path())
@click.pass_context
@_guard
def bounds(ctx, query_path):
    """Evaluate stability-bound calculators from a JSON query file.

    The file holds one query object {"op": ..., ...parameters} or a list
    of them; each answer is {"bound": value, "inputs": {...}}.
    """
    q = read_json(query_path)
    if isinstance(q, list):
        result = [_eval_bound(item) for item in q]
    else:
        result = _eval_bound(q)
    out = ctx.obj.get("out")
    if out is not None:
        write_json(out, result, **_REPORT_FORMAT)
        click.echo(f"wrote bound report to {out}")
    else:
        click.echo(json.dumps(result, **_REPORT_FORMAT))


if __name__ == "__main__":
    main()
