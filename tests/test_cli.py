"""Command-line interface: artifacts, exit codes, benchmark CSV."""

import json
import math
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
from jumprec.spectrum import FourierSpectrum, load_spectrum, save_spectrum
from jumprec.stability import ERROR_FLOOR

from conftest import (
    EDGE_COEFFS,
    bits,
    dump_text,
    full_window,
    no_python_encoder,
    symmetry_edge_spectrum,
)

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


@pytest.mark.parametrize(
    "smooth_args, code, named",
    [('{"amp": -0.7}', 0, None),
     ('{"amp": 710}', 2, "amp=710.0"),
     ('{"amp": NaN}', 2, "amp must be finite"),
     ('{"amp": -Infinity}', 2, "amp must be finite"),
     ('{"amp": 1.0, "freq": 2}', 2, "unknown expsin parameters: ['freq']")],
)
def test_synth_expsin_exit_codes(runner, tmp_path, smooth_args, code, named):
    # JSON NaN and Infinity parse as floats, so the catalog sees them
    mp = write_json(tmp_path / "m.json", MODEL_D1)
    outp = tmp_path / "s.json"
    res = runner.invoke(
        main,
        ["--out", str(outp), "synth", mp, "-M", "4096", "--smooth", "expsin",
         "--smooth-args", smooth_args],
    )
    assert res.exit_code == code, errtext(res)
    if named is None:
        assert load_spectrum(outp).real_valued
    else:
        assert "model error" in errtext(res)
        assert named in errtext(res)
        assert not outp.exists()


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


@pytest.mark.parametrize("precision", ["double", "extended:60"])
def test_recover_takes_real_data_the_input_scale_admits(runner, tmp_path, precision):
    sp = tmp_path / "s.json"
    save_spectrum(sp, symmetry_edge_spectrum())
    bp = write_json(tmp_path / "b.json", {"J": 1.5, "A": 40.0, "B": 0.5, "R": 1.0})
    outp = tmp_path / "a.json"
    res = runner.invoke(
        main,
        ["--precision", precision, "--out", str(outp), "recover", str(sp),
         "-d", "1", "-K", "1", "--bounds", bp],
    )
    assert res.exit_code == 0, errtext(res)
    rec = json.loads(outp.read_text())
    assert rec["smooth_spectrum"]["real_valued"] is True
    assert abs(rec["model"]["jumps"][0]["xi"] - 0.7) <= 1e-10
    # the corrected spectrum is the projection onto real functions: exactly
    # conjugate-symmetric, so it reads back alone, at its own scale 0.26
    assert set(rec["provenance"]) == {"config"}
    psi = FourierSpectrum.from_json_dict(rec["smooth_spectrum"])
    assert psi.real_valued
    assert np.array_equal(psi.coeffs[::-1].conj(), psi.coeffs)
    back = reconstruct.Approximant.from_json_dict(rec)
    assert np.array_equal(back.corrected_spectrum.coeffs, psi.coeffs)
    assert json.loads(json.dumps(back.to_json_dict())) == rec


def recover_args(runner, tmp_path, M=256):
    sp = synthesize(runner, tmp_path, M=M)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    return ["--out", str(tmp_path / "a.json"), "recover", sp, "-d", "1", "-K", "1",
            "--bounds", bp]


def test_recover_file_is_the_text_json_dump_wrote(runner, tmp_path, monkeypatch):
    # an approximant with edge doubles in its model and spectrum, and the
    # run's own config (integers, reals, a priors list) as provenance
    estimate = JumpModel(1, ((-0.0, (5e-324, complex(-2.5e-310, -0.0))),))
    made = []

    def edge_reconstruct(spec, cfg):
        made.append(reconstruct.Approximant(
            estimate, FourierSpectrum(18, EDGE_COEFFS), cfg.to_json_dict()
        ))
        return made[-1]

    monkeypatch.setattr(cli, "full_reconstruct", edge_reconstruct)
    args = recover_args(runner, tmp_path, M=64) + ["--priors", "[0.69]"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, errtext(res)
    text = (tmp_path / "a.json").read_text(encoding="utf-8")
    assert text == dump_text(made[0].to_json_dict())


def test_recover_takes_the_c_encoder(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(json.encoder, "_make_iterencode", no_python_encoder)
    res = runner.invoke(main, recover_args(runner, tmp_path))
    assert res.exit_code == 0, errtext(res)
    assert (tmp_path / "a.json").exists()


def test_recover_file_gives_back_the_corrected_spectrum_bit_for_bit(
    runner, tmp_path, monkeypatch
):
    made = []

    def kept(spec, cfg):
        made.append(reconstruct.full_reconstruct(spec, cfg))
        return made[-1]

    monkeypatch.setattr(cli, "full_reconstruct", kept)
    res = runner.invoke(main, recover_args(runner, tmp_path))
    assert res.exit_code == 0, errtext(res)
    back = reconstruct.Approximant.from_json_dict(
        json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))
    )
    assert np.array_equal(bits(back.corrected_spectrum.coeffs),
                          bits(made[0].corrected_spectrum.coeffs))
    assert back.estimate == made[0].estimate


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("value", [True, False, None, "0.5"])
def test_non_number_coefficients_exit_2_naming_coeffs(runner, tmp_path, value, slot):
    # true and false once loaded as 1 and 0
    spectrum = json.loads(json.dumps(_SPECTRUM))
    spectrum["coeffs"][0][slot] = value
    bp = write_json(tmp_path / "b.json", BOUNDS)
    outp = tmp_path / "a.json"
    res = runner.invoke(
        main,
        ["--out", str(outp), "recover", write_json(tmp_path / "s.json", spectrum),
         "-d", "1", "-K", "1", "--bounds", bp],
    )
    assert res.exit_code == 2, errtext(res)
    assert "model error" in errtext(res)
    assert "coeffs[0]" in errtext(res)
    assert "Traceback" not in errtext(res)
    assert not outp.exists()


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
    [("[true]", "priors[0]=True"), ('["0.7"]', "priors[0]='0.7'"),
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


@pytest.mark.parametrize(
    "record, field, value, named",
    [("spectrum", "real_valued", "false", "real_valued='false'"),
     ("spectrum", "M", 64.5, "M=64.5"),
     ("spectrum", "M", True, "M=True"),
     ("bounds", "J", True, "J=True"),
     ("model", "d", 1.9, "d=1.9"),
     ("jump", "xi", "0.7", "xi='0.7'"),
     ("jump", "a", ["1.0", True], "a='1.0'"),
     ("jump", "a", [1.0, True], "a=True"),
     ("smooth-args", "order", 2.5, "order=2.5"),
     ("sweep", "M_values", [16, 64.5, 160], "M=64.5"),
     ("sweep", "seed", 5.5, "seed=5.5"),
     ("sweep", "seed", True, "seed=True"),
     ("query", "d", 1.5, "d=1.5")],
)
def test_mistyped_record_fields_exit_2_naming_the_field(
    runner, tmp_path, record, field, value, named
):
    # each value once loaded as another type: "false" as True, 64.5 as
    # 64, true as 1 and "0.7" as 0.7
    model = json.loads(json.dumps(MODEL_D1))
    spectrum = synth_spectrum(JumpModel.from_json_dict(MODEL_D1), None, 64).to_json_dict()
    bounds, sweep = dict(BOUNDS), dict(SMALL_SWEEP)
    query, smooth_args = {"op": "c9", "d": 1}, {"order": 2}
    records = {"model": model, "jump": model["jumps"][0], "spectrum": spectrum,
               "bounds": bounds, "sweep": sweep, "query": query,
               "smooth-args": smooth_args}
    records[record][field] = value
    if record in ("model", "jump", "smooth-args"):
        args = ["synth", write_json(tmp_path / "m.json", model), "-M", "64",
                "--smooth", "poly-blend", "--smooth-args", json.dumps(smooth_args)]
    elif record == "sweep":
        args = ["bench", write_json(tmp_path / "sweep.json", sweep)]
    elif record == "query":
        args = ["bounds", write_json(tmp_path / "q.json", query)]
    else:
        args = ["recover", write_json(tmp_path / "s.json", spectrum),
                "-d", "1", "-K", "1", "--bounds", write_json(tmp_path / "b.json", bounds)]
    res = runner.invoke(main, ["--out", str(tmp_path / "out")] + args)
    assert res.exit_code == 2, errtext(res)
    assert "model error" in errtext(res)
    assert named in errtext(res)


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


def test_recover_extended_precision_refuses_a_spectrum_shorter_than_its_plan(
    runner, tmp_path
):
    # a d=1 file at M=3 recovered at d=2: the usable top index is d+2 = 4,
    # and the gather at the half-order plan refuses it as a model error,
    # not an IndexError
    sp = synthesize(runner, tmp_path, M=3)
    bp = write_json(tmp_path / "b.json", BOUNDS)
    res = runner.invoke(
        main,
        ["--precision", "extended:60", "--out", str(tmp_path / "a.json"),
         "recover", sp, "-d", "2", "-K", "1", "--bounds", bp, "--priors", "[0.7]"],
    )
    assert res.exit_code == 2, errtext(res)
    assert "usable M=4 exceeds spectrum M=3" in errtext(res)
    assert not (tmp_path / "a.json").exists()


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


# extreme values overflow the solves; only the exit code and what escapes
# matter here
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


@pytest.mark.parametrize("command", ["bench", "adversarial"])
def test_magnitudes_past_the_double_range_exit_2(runner, tmp_path, command):
    # |a_0| of 1.5e308 + 1.5e308i is not a double; abs() of that Python
    # complex raises OverflowError, which once left as a traceback (exit 1)
    model = {"d": 0, "jumps": [{"xi": 0.7, "a": [[1.5e308, 1.5e308]]}]}
    if command == "bench":
        args = [write_json(tmp_path / "s.json",
                           {"model": model, "M_values": [64, 128, 640], "seed": 5})]
    else:
        args = [write_json(tmp_path / "m.json", model), "-M", "100",
                "--bounds", write_json(tmp_path / "b.json", BOUNDS)]
    res = runner.invoke(main, ["--out", str(tmp_path / "out"), command, *args])
    assert res.exit_code == 2, errtext(res)
    assert "inf" in errtext(res)


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
    text = (outd / "report.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == dump_text(report, indent=2, sort_keys=True)
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
    text = outp.read_text(encoding="utf-8")
    rows = json.loads(text)
    assert text == dump_text(rows, indent=2, sort_keys=True)
    assert runner.invoke(main, ["bounds", qp]).output == text
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


def test_bounds_node_perturbation_echoes_an_unread_start(runner, tmp_path):
    # the bound does not depend on where the progression starts, so a
    # start "t" is not read: it is echoed in inputs like any other key
    query = {"op": "node-perturbation", "K": 1, "multiplicities": [2],
             "sigma": 1, "node_gap": 0.5, "eps": 1e-3, "a_lead": 1.0}
    plain = runner.invoke(main, ["bounds", write_json(tmp_path / "q.json", query)])
    for t in (0, 7, "x"):
        qp = write_json(tmp_path / "qt.json", dict(query, t=t))
        res = runner.invoke(main, ["bounds", qp])
        assert res.exit_code == 0, errtext(res)
        got = json.loads(res.output)
        assert got["inputs"]["t"] == t
        assert got["bound"] == json.loads(plain.output)["bound"]


@pytest.mark.parametrize(
    "query, named",
    [('{"op": "decimated-cap", "d": 2, "R": NaN, "B": 0.5, "N": 10}', "R=nan"),
     ('{"op": "decimated-cap", "d": 2, "R": 1.0, "B": 1e999, "N": 10}', "B=inf"),
     ('{"op": "node-perturbation", "K": 1, "multiplicities": [2], "sigma": 1, '
      '"node_gap": 0.5, "eps": Infinity, "a_lead": 1.0}', "eps=inf")],
    ids=["R-NaN", "B-1e999", "eps-Infinity"],
)
def test_bounds_non_finite_reals_exit_2_naming_the_field(runner, tmp_path, query, named):
    # json reads NaN, Infinity and 1e999 as floats; a bound computed from
    # them was written as NaN or Infinity, which is not JSON
    qp = tmp_path / "q.json"
    qp.write_text(query + "\n", encoding="utf-8")
    res = runner.invoke(main, ["bounds", str(qp)])
    assert res.exit_code == 2, errtext(res)
    assert "must be finite" in errtext(res)
    assert named in errtext(res)


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


def test_bench_footer_fits_every_error_column(tmp_path):
    # one slope line per error column, in column order.  err_a_l rows are
    # flagged against ERROR_FLOOR M^l, since rounding in a_l grows like
    # eps M^l; a column the method does not estimate (NaN) is fitted on
    # no row and flagged on none
    sweep = dict(
        SMALL_SWEEP,
        model={"d": 2, "jumps": [{"xi": 0.7, "a": [1.0, -0.4, 0.25]}]},
        smooth={"name": "expsin", "args": {"amp": 1.0}},
        methods=["full-decimated", "half-order"],
        M_values=[256, 512, 1024, 2048, 4096],
    )
    text = run_bench(load_bench_spec(write_json(tmp_path / "sweep.json", sweep), 0))
    lines = text.splitlines()
    cols = lines[0].split(",")[2:-1]
    assert cols == ["err_xi", "err_a_0", "err_a_1", "err_a_2", "err_sup"]
    noise_above_fixed_floor = 0
    for method in sweep["methods"]:
        slopes = [l.split() for l in lines if l.startswith(f"# slope method={method} ")]
        assert [s[3] for s in slopes] == [f"column={c}" for c in cols]
        flagged = {
            (int(s[3][2:]), s[4][7:]) for s in map(str.split, lines)
            if s[:3] == ["#", "floor-excluded", f"method={method}"]
        }
        for row in (l.split(",") for l in lines if l.startswith(method + ",")):
            M = int(row[1])
            for l in range(3):
                err = float(row[3 + l])
                below = not math.isnan(err) and err <= ERROR_FLOOR * M**l
                assert ((M, f"err_a_{l}") in flagged) == below
                noise_above_fixed_floor += below and err > ERROR_FLOOR
    assert "# slope method=half-order column=err_a_2 value=nan rows_used=0" in lines
    # a fixed floor would have fitted these rounding-level a_l errors
    assert noise_above_fixed_floor >= 3


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

    def recorder(moments):
        assert moments.plan.kind == "consecutive"
        seen.append(moments.values)
        return solve(moments)

    monkeypatch.setattr(cli, "half_order_recover", recorder)
    cli._variant_approximant(bs, method, spec)
    monkeypatch.setattr(cli, "localize_jump", full_window)
    cli._variant_approximant(bs, method, spec)
    K = bs.model.K
    assert len(seen) == 2 * K
    for got, want in zip(seen[:K], seen[K:]):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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


def test_bench_names_duplicate_M_values(runner, tmp_path):
    sp = write_json(tmp_path / "sweep.json",
                    dict(SMALL_SWEEP, M_values=[640, 64, 128, 64, 640]))
    with pytest.raises(ModelError, match=r"duplicate M values \[64, 640\]"):
        load_bench_spec(sp, 0)
    outp = tmp_path / "b.csv"
    res = runner.invoke(main, ["--out", str(outp), "bench", sp])
    assert res.exit_code == 2, errtext(res)
    assert not outp.exists()


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
