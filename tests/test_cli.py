"""Command-line interface: artifacts, exit codes, benchmark CSV."""

import json
import os
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from jumprec import cli, reconstruct
from jumprec.cli import load_bench_spec, main, run_bench
from jumprec.errors import ModelError
from jumprec.model import JumpModel, smooth_catalog, synth_spectrum
from jumprec.solver import SamplePlan
from jumprec.spectrum import load_spectrum

from conftest import full_window

BOUNDS = {"J": np.pi / 2, "A": 4.0, "B": 0.05, "R": 10.0}
MODEL_D1 = {"d": 1, "jumps": [{"xi": 0.7, "a": [1.0, -0.4]}]}


@pytest.fixture()
def runner():
    return CliRunner()


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


def errtext(result):
    return result.output + result.stderr


# ---------------------------------------------------------------- synth


def test_synth_requires_out_path(runner, tmp_path):
    mp = write_json(tmp_path / "m.json", MODEL_D1)
    res = runner.invoke(main, ["synth", mp, "-M", "32"])
    assert res.exit_code == 2
    assert "pass --out PATH" in errtext(res)


def test_synth_writes_expected_coefficients(runner, tmp_path):
    mp = write_json(tmp_path / "m.json", MODEL_D1)
    outp = tmp_path / "s.json"
    res = runner.invoke(main, ["--out", str(outp), "synth", mp, "-M", "32"])
    assert res.exit_code == 0, errtext(res)
    assert "wrote spectrum" in res.output
    got = load_spectrum(outp)
    want = synth_spectrum(JumpModel.from_json_dict(MODEL_D1), None, 32)
    assert got.M == 32
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-15


def test_synth_smooth_args_plumbing(runner, tmp_path):
    mp = write_json(tmp_path / "m.json", MODEL_D1)
    outp = tmp_path / "s.json"
    res = runner.invoke(
        main,
        ["--out", str(outp), "synth", mp, "-M", "32",
         "--smooth", "sin", "--smooth-args", '{"amp": 0.5}'],
    )
    assert res.exit_code == 0, errtext(res)
    got = load_spectrum(outp)
    want = synth_spectrum(
        JumpModel.from_json_dict(MODEL_D1), smooth_catalog("sin", amp=0.5), 32
    )
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-15


def test_synth_rejects_non_object_smooth_args(runner, tmp_path):
    mp = write_json(tmp_path / "m.json", MODEL_D1)
    res = runner.invoke(
        main,
        ["--out", str(tmp_path / "s.json"), "synth", mp, "-M", "32",
         "--smooth-args", "[1, 2]"],
    )
    assert res.exit_code == 2


# ---------------------------------------------------------------- recover


def synthesize(runner, tmp_path, model=MODEL_D1, M=256, smooth=None):
    mp = write_json(tmp_path / "m.json", model)
    sp = tmp_path / "s.json"
    args = ["--out", str(sp), "synth", mp, "-M", str(M)]
    if smooth:
        args += ["--smooth", smooth]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, errtext(res)
    return str(sp)


def test_recover_round_trip(runner, tmp_path):
    sp = synthesize(runner, tmp_path)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    outp = tmp_path / "a.json"
    res = runner.invoke(
        main,
        ["--out", str(outp), "recover", sp, "-d", "1", "-K", "1",
         "--bounds", bp],
    )
    assert res.exit_code == 0, errtext(res)
    assert "recovered 1 jump(s)" in res.output
    rec = json.loads(outp.read_text())
    xi = rec["model"]["jumps"][0]["xi"]
    assert abs(xi - 0.7) <= 1e-10


def test_recover_with_trusted_priors(runner, tmp_path):
    sp = synthesize(runner, tmp_path)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    outp = tmp_path / "a.json"
    res = runner.invoke(
        main,
        ["--out", str(outp), "recover", sp, "-d", "1", "-K", "1",
         "--bounds", bp, "--priors", "[0.69]"],
    )
    assert res.exit_code == 0, errtext(res)
    rec = json.loads(outp.read_text())
    assert abs(rec["model"]["jumps"][0]["xi"] - 0.7) <= 1e-10


@pytest.mark.parametrize("precision", ["double", "extended:60"])
def test_priors_replace_detection(runner, tmp_path, monkeypatch, precision):
    def no_detection(spec, K):
        raise AssertionError("detection ran although --priors was given")

    monkeypatch.setattr(reconstruct, "prony_order0", no_detection)
    monkeypatch.setattr(cli, "prony_order0", no_detection)
    sp = synthesize(runner, tmp_path)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    outp = tmp_path / "a.json"
    res = runner.invoke(
        main,
        ["--precision", precision, "--out", str(outp), "recover", sp,
         "-d", "1", "-K", "1", "--bounds", bp, "--priors", "[0.69]"],
    )
    assert res.exit_code == 0, errtext(res)
    rec = json.loads(outp.read_text())
    assert abs(rec["model"]["jumps"][0]["xi"] - 0.7) <= 1e-10


def test_extended_recover_refines_a_bad_prior(runner, tmp_path):
    # the prior sits 2.7 rad from the jump; the half-order solve, not the
    # prior, must pick the decimated root branch
    sp = synthesize(runner, tmp_path)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    outp = tmp_path / "a.json"
    res = runner.invoke(
        main,
        ["--precision", "extended:60", "--out", str(outp), "recover", sp,
         "-d", "1", "-K", "1", "--bounds", bp, "--priors", "[-2.0]"],
    )
    assert res.exit_code == 0, errtext(res)
    rec = json.loads(outp.read_text())
    assert abs(rec["model"]["jumps"][0]["xi"] - 0.7) <= 1e-10


def test_bad_prior_is_named_in_the_model_error(runner, tmp_path):
    sp = synthesize(runner, tmp_path)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    res = runner.invoke(
        main,
        ["--out", str(tmp_path / "a.json"), "recover", sp,
         "-d", "1", "-K", "1", "--bounds", bp, "--priors", "[-2.0]"],
    )
    assert res.exit_code == 2, errtext(res)
    assert "prior" in errtext(res)


@pytest.mark.parametrize(
    "priors, named",
    [("[true]", "prior True"), ('["0.7"]', "prior '0.7'"),
     ("[1e308]", "prior 1e+308 outside"), ("[3.5]", "prior 3.5 outside"),
     ("[0.7", "--priors must be a JSON list")],
)
def test_malformed_priors_exit_2_naming_the_prior(runner, tmp_path, priors, named):
    # JSON true and "0.7" once ran as priors 1.0 and 0.7; 1e308 reached
    # the window and overflowed there; text that is not JSON exited 4 as
    # an I/O error
    sp = synthesize(runner, tmp_path)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    outp = tmp_path / "a.json"
    res = runner.invoke(
        main,
        ["--out", str(outp), "recover", sp,
         "-d", "1", "-K", "1", "--bounds", bp, "--priors", priors],
    )
    assert res.exit_code == 2, errtext(res)
    assert named in errtext(res)
    assert "Traceback" not in errtext(res)
    assert not outp.exists()


@pytest.mark.parametrize("precision", ["double", "extended:60"])
def test_weak_leading_magnitude_is_a_model_error(runner, tmp_path, precision):
    # |a_0| = 0.01 sits below half the declared floor B = 0.05
    model = {"d": 1, "jumps": [{"xi": 0.7, "a": [0.01, 0.3]}]}
    sp = synthesize(runner, tmp_path, model=model)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    res = runner.invoke(
        main,
        ["--precision", precision, "--out", str(tmp_path / "a.json"),
         "recover", sp, "-d", "1", "-K", "1", "--bounds", bp],
    )
    assert res.exit_code == 2, errtext(res)
    assert "below half the declared floor" in errtext(res)


def test_recover_extended_precision_single_jump(runner, tmp_path):
    sp = synthesize(runner, tmp_path)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    outp = tmp_path / "a.json"
    res = runner.invoke(
        main,
        ["--precision", "extended:60", "--out", str(outp), "recover", sp,
         "-d", "1", "-K", "1", "--bounds", bp],
    )
    assert res.exit_code == 0, errtext(res)
    rec = json.loads(outp.read_text())
    assert rec["provenance"]["config"]["precision_digits"] == 60
    assert abs(rec["model"]["jumps"][0]["xi"] - 0.7) <= 1e-10


def test_recover_extended_precision_rejects_multiple_jumps(runner, tmp_path):
    model = {
        "d": 1,
        "jumps": [
            {"xi": -1.3, "a": [1.0, 0.3]},
            {"xi": 0.7, "a": [0.8, -0.4]},
        ],
    }
    sp = synthesize(runner, tmp_path, model=model)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    res = runner.invoke(
        main,
        ["--precision", "extended:60", "--out", str(tmp_path / "a.json"),
         "recover", sp, "-d", "1", "-K", "2", "--bounds", bp],
    )
    assert res.exit_code == 2
    assert "single-jump" in errtext(res)


@pytest.mark.parametrize("precision", ["double", "extended:60"])
def test_non_finite_spectrum_file_is_a_model_error(runner, tmp_path, precision):
    sp = synthesize(runner, tmp_path, M=64)
    record = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
    record["coeffs"][64 + 21] = [float("nan"), 0.0]  # JSON NaN, sampled k=21
    sp = write_json(tmp_path / "s.json", record)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    res = runner.invoke(
        main,
        ["--precision", precision, "--out", str(tmp_path / "a.json"),
         "recover", sp, "-d", "1", "-K", "1", "--bounds", bp],
    )
    assert res.exit_code == 2, errtext(res)
    assert "non-finite" in errtext(res)


def test_low_digit_extended_precision_is_rejected_up_front(runner, tmp_path):
    res = runner.invoke(main, ["--precision", "extended:10", "bounds", "x"])
    assert res.exit_code == 2
    assert ">= 50 digits" in errtext(res)


def test_corrupt_spectrum_file_is_an_io_error(runner, tmp_path):
    bad = tmp_path / "s.json"
    bad.write_text("{not json", encoding="utf-8")
    bp = write_json(tmp_path / "b.json", BOUNDS)
    res = runner.invoke(
        main,
        ["--out", str(tmp_path / "a.json"), "recover", str(bad), "-d", "1",
         "-K", "1", "--bounds", bp],
    )
    assert res.exit_code == 4


def test_too_few_modes_for_the_order_exit_2(runner, tmp_path):
    # at M=40 the order-2 window misses its plateau gate: the request has
    # too few modes, which once exited 3 as a numeric failure
    model = {"d": 2, "jumps": [{"xi": 0.7, "a": [1.0, 0.3, 0.3]}]}
    sp = synthesize(runner, tmp_path, model=model, M=40)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    res = runner.invoke(
        main,
        ["--out", str(tmp_path / "a.json"), "recover", sp, "-d", "2", "-K", "1",
         "--bounds", bp],
    )
    assert res.exit_code == 2, errtext(res)
    assert "M=40 is too few modes for order d=2" in errtext(res)


def test_recover_requires_every_contract_option(runner, tmp_path):
    sp = synthesize(runner, tmp_path, M=32)
    res = runner.invoke(
        main, ["--out", str(tmp_path / "a.json"), "recover", sp, "-d", "1"]
    )
    assert res.exit_code == 2  # click usage error for the missing options


# any JSON value; numbers past the double range and non-finite floats are
# drawn often, since float() and int() raise OverflowError on them
_HUGE = 10**400
_EXTREME = st.sampled_from([_HUGE, -_HUGE, float("inf"), float("nan"), 1e308])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
_VALUE = _EXTREME | st.tuples(_EXTREME, st.floats()).map(list) | _JSON
_SPECTRUM = synth_spectrum(JumpModel.from_json_dict(MODEL_D1), None, 64).to_json_dict()


@st.composite
def malformed_record(draw, base, fields):
    """A valid record with one field or entry replaced, or other text."""
    kind = draw(st.sampled_from(["valid", "field", "entry", "json", "text"]))
    record = json.loads(json.dumps(base))
    if kind == "field":
        record[draw(st.sampled_from(fields))] = draw(_VALUE)
    elif kind == "entry" and "coeffs" in record:
        record["coeffs"][draw(st.integers(0, len(record["coeffs"]) - 1))] = draw(_VALUE)
    elif kind == "json":
        record = draw(_JSON)
    elif kind == "text":
        return draw(st.text(max_size=12))
    return json.dumps(record)


_GOOD = (json.dumps(_SPECTRUM), json.dumps(BOUNDS))


# extreme values overflow the solves and weak jumps warn; only the exit
# code and what escapes matter here
@pytest.mark.filterwarnings("ignore")
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["double", "extended:60"]),
    malformed_record(_SPECTRUM, ["M", "real_valued", "coeffs"]),
    malformed_record(BOUNDS, ["J", "A", "B", "R"]),
    st.none() | st.text(max_size=12) | st.lists(_VALUE, max_size=3).map(json.dumps),
    st.integers(0, 3),
    st.integers(1, 2),
)
# each of these once let an OverflowError escape (exit 1, a traceback)
@example("double", json.dumps(dict(_SPECTRUM, M=float("inf"))), _GOOD[1], None, 1, 1)
@example("double", _GOOD[0].replace("[0.0, 0.0]", f"[{_HUGE}, 0.0]"), _GOOD[1], None, 1, 1)
@example("double", _GOOD[0], json.dumps(dict(BOUNDS, J=_HUGE)), None, 1, 1)
@example("extended:60", *_GOOD, f"[{_HUGE}]", 1, 1)
def test_recover_exits_by_category_on_malformed_files(
    precision, spectrum, bounds, priors, d, K
):
    with tempfile.TemporaryDirectory() as tmp:
        sp, bp = os.path.join(tmp, "s.json"), os.path.join(tmp, "b.json")
        for path, text in ((sp, spectrum), (bp, bounds)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        args = ["--precision", precision, "--out", os.path.join(tmp, "a.json"),
                "recover", sp, "-d", str(d), "-K", str(K), "--bounds", bp]
        if priors is not None:
            args += ["--priors", priors]
        res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 2, 3, 4), errtext(res)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        repr(res.exception)
    )


# ---------------------------------------------------------------- ceiling


def test_adversarial_artifacts(runner, tmp_path):
    mp = write_json(tmp_path / "m.json", MODEL_D1)
    bp = write_json(tmp_path / "b.json", {"J": np.pi / 2, "A": 2.0, "B": 0.5,
                                          "R": 1.0})
    outd = tmp_path / "pair"
    res = runner.invoke(
        main, ["--out", str(outd), "adversarial", mp, "-M", "50",
               "--bounds", bp]
    )
    assert res.exit_code == 0, errtext(res)
    g = load_spectrum(outd / "g.json")
    h = load_spectrum(outd / "h.json")
    assert np.array_equal(g.coeffs, h.coeffs)
    report = json.loads((outd / "report.json").read_text())
    assert report["delta"] == pytest.approx(
        2.0 * np.pi * 0.5 * 50.0**-3, rel=1e-12
    )
    assert report["within_budget"] is True
    assert report["max_coeff_discrepancy"] == 0.0


# ---------------------------------------------------------------- bounds


def test_bounds_single_query_to_stdout(runner, tmp_path):
    qp = write_json(tmp_path / "q.json", {"op": "c9", "d": 1})
    res = runner.invoke(main, ["bounds", qp])
    assert res.exit_code == 0, errtext(res)
    payload = json.loads(res.output)
    assert payload["bound"] == 4.5
    assert payload["inputs"]["op"] == "c9"


def test_bounds_query_list_and_file_output(runner, tmp_path):
    qp = write_json(
        tmp_path / "q.json",
        [
            {"op": "method-gap", "d": 1},
            {"op": "decimated-cap", "d": 1, "R": 0.5, "B": 0.5, "N": 32},
            {"op": "misspec-exponent", "d_used": 2, "d_true": 1},
        ],
    )
    outp = tmp_path / "r.json"
    res = runner.invoke(main, ["--out", str(outp), "bounds", qp])
    assert res.exit_code == 0, errtext(res)
    rows = json.loads(outp.read_text())
    assert rows[0]["bound"] == 0.375
    assert rows[1]["bound"] == pytest.approx(12.0 / 32**3, rel=1e-15)
    assert rows[2]["bound"] == -2.0


def test_bounds_node_perturbation_query(runner, tmp_path):
    qp = write_json(
        tmp_path / "q.json",
        {"op": "node-perturbation", "K": 1, "multiplicities": [2],
         "sigma": 1, "node_gap": 0.5, "eps": 1e-3, "a_lead": 1.0},
    )
    res = runner.invoke(main, ["bounds", qp])
    assert res.exit_code == 0, errtext(res)
    assert json.loads(res.output)["bound"] == pytest.approx(0.064, rel=1e-12)


def test_bounds_bad_queries(runner, tmp_path):
    qp = write_json(tmp_path / "q.json", {"op": "volume", "d": 1})
    assert runner.invoke(main, ["bounds", qp]).exit_code == 2
    qp2 = write_json(tmp_path / "q2.json", {"op": "decimated-cap", "d": 1})
    assert runner.invoke(main, ["bounds", qp2]).exit_code == 2
    qp3 = write_json(tmp_path / "q3.json", "c9")
    assert runner.invoke(main, ["bounds", qp3]).exit_code == 2


def test_malformed_smooth_args_are_a_model_error(runner, tmp_path):
    mp = write_json(tmp_path / "m.json", MODEL_D1)
    res = runner.invoke(
        main,
        ["--out", str(tmp_path / "s.json"), "synth", mp, "-M", "32",
         "--smooth", "poly-blend", "--smooth-args", '{"order": [1]}'],
    )
    assert res.exit_code == 2, errtext(res)
    assert "model error" in errtext(res)


def test_malformed_bench_smooth_args_are_a_model_error(runner, tmp_path):
    sp = write_json(tmp_path / "sweep.json",
                    dict(SMALL_SWEEP, smooth={"name": "sin", "args": [1]}))
    res = runner.invoke(main, ["--out", str(tmp_path / "b.csv"), "bench", sp])
    assert res.exit_code == 2, errtext(res)
    assert "model error" in errtext(res)


@pytest.mark.parametrize("N", [1e400, float("nan")])
def test_non_integer_bound_parameter_is_a_model_error(runner, tmp_path, N):
    qp = write_json(tmp_path / "q.json",
                    {"op": "decimated-cap", "d": 1, "R": 1, "B": 1, "N": N})
    res = runner.invoke(main, ["bounds", qp])
    assert res.exit_code == 2, errtext(res)
    assert "model error" in errtext(res)


# ---------------------------------------------------------------- bench


SMALL_SWEEP = {
    "model": MODEL_D1,
    "smooth": None,
    "noise": None,
    "methods": ["half-order"],
    "M_values": [16, 64, 160],
    "precision": "double",
    "seed": 5,
    "bounds": BOUNDS,
}


def test_bench_csv_shape_and_footer(runner, tmp_path):
    sp = write_json(tmp_path / "sweep.json", SMALL_SWEEP)
    outp = tmp_path / "bench.csv"
    res = runner.invoke(main, ["--out", str(outp), "bench", sp])
    assert res.exit_code == 0, errtext(res)
    text = outp.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "method,M,err_xi,err_a_0,err_a_1,err_sup,ratio_logerr_logM"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 3
    for line in data:
        assert line.startswith("half-order,")
    slopes = [l for l in lines if l.startswith("# slope method=half-order")]
    assert any("column=err_xi" in l for l in slopes)
    assert any("column=err_sup" in l for l in slopes)


TWO_JUMP_SWEEP = {
    "model": {"d": 2, "jumps": [{"xi": -1.3, "a": [1.0, 0.3, -0.2]},
                                {"xi": 0.7, "a": [0.8, -0.4, 0.25]}]},
    "smooth": {"name": "poly-blend", "args": {"order": 3, "center": -2.0, "amp": 0.7}},
    "noise": None,
    "methods": ["half-order", "eckhoff-original"],
    "M_values": [64, 256, 1024],
    "seed": 5,
    "bounds": BOUNDS,
}


@pytest.mark.parametrize("method", ["half-order", "eckhoff-original"])
def test_bench_baselines_window_at_their_own_plan(tmp_path, monkeypatch, method):
    # K > 1 baselines window only the indices of their consecutive plan;
    # there the solve must read what windowing every index gives.  The
    # solve's inputs are compared, not its estimates: a consecutive plan
    # turns rounding in them into a_1 changes of 1e-7
    bs = load_bench_spec(write_json(tmp_path / "sweep.json", TWO_JUMP_SWEEP), 0)
    spec = synth_spectrum(bs.model, bs.smooth, 1024)
    seen = []
    solve = cli.half_order_recover

    def recorder(data, d1, M):
        seen.append((data.coeffs, np.array(SamplePlan("consecutive", d1, M).indices)))
        return solve(data, d1, M)

    monkeypatch.setattr(cli, "half_order_recover", recorder)
    cli._variant_approximant(bs, method, spec)
    monkeypatch.setattr(cli, "localize_jump", full_window)
    cli._variant_approximant(bs, method, spec)
    K = bs.model.K
    assert len(seen) == 2 * K
    for (got, ks), (want, _) in zip(seen[:K], seen[K:]):
        want = want[ks + spec.M]
        assert np.max(np.abs(got[ks + spec.M] - want)) <= 1e-14 * np.max(np.abs(want))


def test_bench_is_deterministic(runner, tmp_path):
    sp = write_json(tmp_path / "sweep.json", SMALL_SWEEP)
    bs = load_bench_spec(sp, 0)
    assert run_bench(bs) == run_bench(load_bench_spec(sp, 0))


def test_bench_spec_validation(tmp_path):
    def attempt(**over):
        payload = dict(SMALL_SWEEP, **over)
        path = write_json(tmp_path / "bad.json", payload)
        with pytest.raises(ModelError):
            load_bench_spec(path, 0)

    attempt(M_values=[16, 64])  # needs at least three sizes
    attempt(M_values=[16, 64, 100])  # top must be 10x the bottom
    attempt(methods=["half-order", "half-order"])
    attempt(methods=["simpson"])
    attempt(methods=[])
    attempt(methods=5)
    attempt(M_values=["a", 2, 3])
    attempt(noise={"amp": "x"})
    attempt(noise={"amp": 0.5, "decay": float("nan")})
    attempt(noise={"amp": -0.5}, bounds=BOUNDS)
    attempt(noise={"amp": float("inf")}, bounds=BOUNDS)
    attempt(seed=None)
    attempt(seed="abc")
    attempt(precision=5)


@pytest.mark.parametrize("where", ["spec", "flag"])
def test_bench_refuses_extended_precision(runner, tmp_path, where):
    spec_precision = "extended:60" if where == "spec" else "double"
    flag = ["--precision", "extended:60"] if where == "flag" else []
    sweep = dict(SMALL_SWEEP, precision=spec_precision)
    sp = write_json(tmp_path / "sweep.json", sweep)
    outp = tmp_path / "b.csv"
    res = runner.invoke(main, flag + ["--out", str(outp), "bench", sp])
    assert res.exit_code == 2, errtext(res)
    assert "model error" in errtext(res)
    assert "double precision only" in errtext(res)
    assert not outp.exists()


def test_bench_spec_falls_back_to_derived_bounds(tmp_path):
    payload = dict(SMALL_SWEEP)
    payload.pop("bounds")
    path = write_json(tmp_path / "sweep.json", payload)
    bs = load_bench_spec(path, 0)
    assert bs.bounds.B == pytest.approx(0.5, abs=1e-12)  # half of |a_0|
    assert bs.bounds.A == pytest.approx(2.8, abs=1e-12)  # twice the mass
