import json

import numpy as np
import pytest

from conftest import GAUSSIAN_EIGENVALUES, GAUSSIAN_GAP
from zigzagspec import rootfinder
from zigzagspec.charfn import CharFunctionHandle
from zigzagspec.cli import main, parse_complex, parse_config_text

# a tight region holding just the stationary eigenvalue and the gap pair
# keeps every CLI invocation fast
REGION = ("--re-min", "-0.9", "--re-max", "0.1", "--im-max", "1.6")


def run(args, capsys):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- helpers


def test_parse_complex_accepts_both_imaginary_suffixes():
    assert parse_complex("0.5+1.5i") == 0.5 + 1.5j
    assert parse_complex("0.5+1.5j") == 0.5 + 1.5j
    assert parse_complex("-0.4 + 1.0i") == -0.4 + 1.0j
    assert parse_complex("2") == 2.0 + 0.0j
    with pytest.raises(Exception):
        parse_complex("not-a-number")


def test_config_round_trip():
    parsed = parse_config_text("potential = 'gaussian:1'\nim-max = 1.6\nseed = 3\nout = 'a.json'\n")
    assert parsed["potential"] == "gaussian:1"
    assert parsed["im-max"] == "1.6"
    assert parsed["seed"] == "3"
    assert parsed["out"] == "a.json"


def test_config_text_rejects_unknown_keys():
    from zigzagspec.errors import DomainError

    with pytest.raises(DomainError):
        parse_config_text("wavelength = 7\n")


# ---------------------------------------------------------------- spectrum


def test_spectrum_json_payload(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code, _, _ = run(
        ["spectrum", "--potential", "gaussian:1", *REGION, "--out", str(out)], capsys
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["potential"] == "gaussian:1"
    assert payload["gap"] == pytest.approx(GAUSSIAN_GAP, abs=1e-9)
    eigs = payload["eigenvalues"]
    assert len(eigs) == 3  # 0 and the conjugate gap pair
    for e in eigs:
        assert set(e) == {"re", "im", "branch", "multiplicity", "residual"}
    assert payload["config"]["potential"] == "gaussian:1"
    assert "diagnostics" in payload


def test_spectrum_artifacts_are_reproducible(tmp_path, capsys):
    out, csv, svg = (tmp_path / n for n in ("s.json", "s.csv", "s.svg"))
    args = [
        "spectrum",
        "--potential",
        "gaussian:1",
        *REGION,
        "--out",
        str(out),
        "--csv",
        str(csv),
        "--plot",
        str(svg),
    ]
    assert run(args, capsys)[0] == 0
    first = [p.read_bytes() for p in (out, csv, svg)]
    assert run(args, capsys)[0] == 0
    second = [p.read_bytes() for p in (out, csv, svg)]
    assert first == second  # byte-identical reruns, no timestamps anywhere

    header, *rows = csv.read_text().strip().splitlines()
    assert header == "re,im,branch,multiplicity"
    assert len(rows) == 3

    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert 'width="640"' in text and 'height="480"' in text
    assert "#1f4fbf" in text and "#bf1f1f" in text  # both symmetry branches


def test_spectrum_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# tight window\npotential = gaussian:1\nre-min = -0.9\nre-max = 0.1\n"
        "im-max = 0.5\n"
    )
    out = tmp_path / "o.json"
    code, _, _ = run(
        [
            "spectrum",
            "--config",
            str(cfgfile),
            "--im-max",
            "1.6",  # beats the file value
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["im_max"] == 1.6
    assert payload["gap"] == pytest.approx(GAUSSIAN_GAP, abs=1e-9)


def test_spectrum_sigma_rescaling(tmp_path, capsys):
    out = tmp_path / "o.json"
    code, _, _ = run(
        [
            "spectrum",
            "--potential",
            "gaussian:1",
            "--sigma",
            "2",
            *REGION,
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["gap"] == pytest.approx(GAUSSIAN_GAP / 2.0, abs=1e-9)
    assert "gamma / 2" in payload["potential"]


def test_spectrum_stdout_when_no_out(capsys):
    code, outtext, _ = run(["spectrum", "--potential", "gaussian:1", *REGION], capsys)
    assert code == 0
    assert json.loads(outtext)["gap"] == pytest.approx(GAUSSIAN_GAP, abs=1e-9)


# ----------------------------------------------------------------- perturb


def test_perturb_payload_and_arrows(tmp_path, capsys):
    out, svg = tmp_path / "p.json", tmp_path / "p.svg"
    code, _, _ = run(
        [
            "perturb",
            "--potential",
            "gaussian:1",
            "--eps",
            "0.5",
            *REGION,
            "--out",
            str(out),
            "--plot",
            str(svg),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["epsilon"] == 0.5
    assert payload["perturbed_gap"] >= payload["gap"] - 1e-9
    entries = payload["perturbation"]
    assert all(e["resolved"] for e in entries)
    zero = min(entries, key=lambda e: abs(complex(e["gamma"]["re"], e["gamma"]["im"])))
    assert zero["shifted"] == {"re": 0.0, "im": 0.0}
    assert abs(zero["coefficient"]["re"]) < 1e-10
    assert "polygon" in svg.read_text()  # arrowheads drawn


def test_perturb_csv_is_the_spectrum_csv(tmp_path, capsys):
    # perturb lists the base eigenvalues it shifted, as spectrum does
    spec, pert = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ("--potential", "gaussian:1", *REGION)
    assert run(["spectrum", *args, "--csv", str(spec)], capsys)[0] == 0
    assert run(["perturb", *args, "--eps", "0.5", "--csv", str(pert)], capsys)[0] == 0
    assert pert.read_bytes() == spec.read_bytes()
    assert len(spec.read_text().splitlines()) == 4  # the header, 0 and the rightmost pair


def test_perturb_rejects_sigma(tmp_path, capsys):
    # as a flag: the perturb subcommand does not define --sigma at all
    code, _, err = run(
        ["perturb", "--potential", "gaussian:1", "--eps", "0.1", "--sigma", "2"],
        capsys,
    )
    assert code == 1
    assert "unrecognized" in err
    # through a config file: caught by the explicit guard
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("potential = gaussian:1\neps = 0.1\nsigma = 2\n")
    code, _, err = run(["perturb", "--config", str(cfgfile)], capsys)
    assert code == 1
    assert "scaled descriptor" in err


def test_perturb_rejects_nonfinite_eps(capsys):
    code, _, err = run(["perturb", "--potential", "gaussian:1", "--eps", "nan", *REGION], capsys)
    assert code == 2
    blob = json.loads(err)["error"]
    assert blob["type"] == "DomainError"
    assert "epsilon" in blob["message"]


def test_perturb_requires_eps(capsys):
    code, _, err = run(["perturb", "--potential", "gaussian:1", *REGION], capsys)
    assert code == 1
    assert "eps" in err


# ------------------------------------------------------------------ eigfun


def test_eigfun_polishes_and_tabulates(tmp_path, capsys):
    csv, out = tmp_path / "f.csv", tmp_path / "f.json"
    code, _, _ = run(
        [
            "eigfun",
            "--potential",
            "gaussian:1",
            "--gamma",
            "-0.4257+1.023i",  # coarse guess; leading minus exercises joining
            "--csv",
            str(csv),
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    g1 = GAUSSIAN_EIGENVALUES[1]
    meta = json.loads(out.read_text())
    polished = complex(meta["gamma"]["re"], meta["gamma"]["im"])
    assert abs(polished - g1) < 1e-9

    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,re_plus,im_plus,re_minus,im_minus"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert data.shape[0] == meta["rows"]
    # components are continuous across the fold at the origin
    i0 = int(np.argmin(np.abs(data[:, 0])))
    for col in (1, 2, 3, 4):
        assert abs(data[i0 - 1, col] - data[i0 + 1, col]) < 1e-2
    # normalization pins f(0, -1) = 1
    assert data[i0, 3] == pytest.approx(1.0, abs=1e-12)


def test_eigfun_rejects_non_eigenvalue(capsys):
    code, _, err = run(
        ["eigfun", "--potential", "gaussian:1", "--gamma", "5+5i", "--csv", "x.csv"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"]["type"]


@pytest.mark.parametrize("gamma", ["nan", "1e400", "-0.5+nani"])
def test_eigfun_rejects_nonfinite_gamma(gamma, tmp_path, capsys):
    csv = tmp_path / "f.csv"
    code, out, err = run(
        ["eigfun", "--potential", "gaussian:1", "--gamma", gamma, "--csv", str(csv)], capsys
    )
    assert code == 2
    assert out == ""
    blob = json.loads(err)["error"]
    assert blob["type"] == "DomainError"
    assert "finite" in blob["message"]
    assert not csv.exists()


# ---------------------------------------------------------------- simulate


def test_simulate_payload_and_events(tmp_path, capsys):
    out, csv = tmp_path / "sim.json", tmp_path / "ev.csv"
    code, _, _ = run(
        [
            "simulate",
            "--potential",
            "gaussian:1",
            "-T",
            "500",
            "--seed",
            "5",
            "--out",
            str(out),
            "--csv",
            str(csv),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["horizon"] == 500.0
    assert payload["seed"] == 5
    assert payload["n_events"] > 100
    assert payload["ks_statistic"] < 0.2
    assert 0.3 < payload["velocity_fraction_plus"] < 0.7
    assert payload["acf"]["values"][0] == 1.0
    assert payload["acf"]["envelope_rate"] > 0.0

    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,x,theta"
    assert len(lines) - 1 == payload["n_events"] + 1  # initial state included
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0 and int(first[2]) == 1


def test_simulate_short_horizon_skips_acf(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code, _, _ = run(
        ["simulate", "--potential", "gaussian:1", "-T", "50", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert json.loads(out.read_text())["acf"] is None


@pytest.mark.parametrize("seed", ["1180591620717411303424", "-1"])
def test_simulate_rejects_seed_outside_uint64(seed, tmp_path, capsys):
    out = tmp_path / "sim.json"
    args = ["simulate", "--potential", "gaussian:1", "-T", "10", "--seed", seed]
    code, _, err = run([*args, "--out", str(out)], capsys)
    assert code == 2
    blob = json.loads(err)["error"]
    assert blob["type"] == "DomainError"
    assert "seed" in blob["message"]
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["spectrum", "eigfun"])
def test_rejects_tol_not_finite_and_positive(command, tol, tmp_path, capsys):
    out = tmp_path / "out.json"
    args = [command, "--potential", "gaussian:1", "--tol", tol, "--out", str(out)]
    if command == "eigfun":
        args += ["--gamma", "-0.4+1.0i", "--csv", str(tmp_path / "f.csv")]
    code, _, err = run(args, capsys)
    assert code == 2
    blob = json.loads(err)["error"]
    assert blob["type"] == "DomainError"
    assert "tol" in blob["message"]
    assert not out.exists()


def test_spectrum_tol_is_refused_before_psi(monkeypatch, capsys):
    def no_psi(*args, **kwargs):
        raise AssertionError("psi evaluated despite --tol nan")

    monkeypatch.setattr(CharFunctionHandle, "values_batch", no_psi)
    code, _, err = run(["spectrum", "--potential", "gaussian:1", "--tol", "nan"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == {"type": "DomainError", "message": "root_tol must be finite and > 0, got nan"}


TOL_REFUSALS = {
    "spectrum": ["--re-min", "-1"],  # a region that climbs auto_region's ladder
    "perturb": ["--eps", "0.5", "--re-min", "-1"],
    "eigfun": ["--gamma", "-0.4+1.0i"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(TOL_REFUSALS))
def test_a_bad_tol_is_refused_before_any_psi(command, source, monkeypatch, tmp_path, capsys):
    calls = []
    values_batch = CharFunctionHandle.values_batch

    def spy(self, gammas):
        calls.append(self)
        return values_batch(self, gammas)

    monkeypatch.setattr(CharFunctionHandle, "values_batch", spy)
    cfgfile = tmp_path / "tol.cfg"
    cfgfile.write_text("tol = nan\n")
    tol = ["--tol", "nan"] if source == "flag" else ["--config", str(cfgfile)]
    code, out, err = run([command, "--potential", "beta:2.5", *TOL_REFUSALS[command], *tol], capsys)
    assert code == 2 and out == ""
    name = "tol" if command == "eigfun" else "root_tol"  # eigfun keeps eigenfunction_table's wording
    assert json.loads(err)["error"] == {"type": "DomainError", "message": f"{name} must be finite and > 0, got nan"}
    assert calls == []


def test_spectrum_tol_reaches_every_polish(monkeypatch, tmp_path, capsys):
    seen = []
    orig = rootfinder.newton_polish

    def spy(ld, guess, multiplicity=1, root_tol=1e-10):
        seen.append(root_tol)
        return orig(ld, guess, multiplicity, root_tol)

    monkeypatch.setattr(rootfinder, "newton_polish", spy)
    out = tmp_path / "s.json"
    code, _, _ = run(["spectrum", "--potential", "gaussian:1", *REGION, "--tol", "1e-12", "--out", str(out)], capsys)
    assert code == 0
    assert len(json.loads(out.read_text())["eigenvalues"]) == 3
    assert seen and set(seen) == {1e-12}


def test_simulate_takes_no_tol(tmp_path, capsys):
    # simulate has no tolerance: its --tol was ignored, and echoed NaN into the JSON
    out = tmp_path / "sim.json"
    code, _, err = run(["simulate", "--potential", "gaussian:1", "-T", "100", "--tol", "nan", "--out", str(out)], capsys)
    assert code == 1
    assert "--tol" in err
    assert not out.exists()


# -------------------------------------------------------------- exit codes


def test_exit_usage_on_missing_potential(capsys):
    code, _, err = run(["spectrum"], capsys)
    assert code == 1
    assert "potential" in err


def test_exit_numerical_with_error_json(capsys):
    code, _, err = run(["spectrum", "--potential", "nonsense:3"], capsys)
    assert code == 2
    blob = json.loads(err)
    assert blob["error"]["type"]
    assert "nonsense" in blob["error"]["message"]


@pytest.mark.parametrize(
    "bounds",
    [
        ("--re-min", "0.5", "--re-max", "0.1", "--im-max", "1"),
        ("--re-min", "-0.9", "--re-max", "0.1", "--im-max", "-1"),
        ("--re-min", "nan", "--re-max", "0.1", "--im-max", "1"),
        ("--re-min", "-0.9", "--re-max", "0.1", "--im-max", "inf"),
        ("--re-min", "nan"),
    ],
)
def test_exit_numerical_on_bad_region(bounds, capsys):
    code, _, err = run(["spectrum", "--potential", "gaussian:1", *bounds], capsys)
    assert code == 2
    blob = json.loads(err)["error"]
    assert blob["type"] == "DomainError"
    assert "region" in blob["message"]  # refused up front, not deep in quadrature


@pytest.mark.parametrize(
    "flags, span",
    [
        (("--re-max", "-0.1"), "[-4.0, -0.1]"),
        (("--re-min", "0.2", "--re-max", "0.5"), "[0.2, 0.5]"),
        (("--re-max", "nan"), "[-4.0, nan]"),
    ],
)
def test_real_span_without_zero_is_refused_before_the_imaginary_ladder(flags, span, monkeypatch, capsys):
    # no --im-max: auto_region's ladder (psi on its rungs) would pick the
    # imaginary bound, but a real span without 0 is refused before it
    from zigzagspec import cli

    def no_ladder(*args, **kwargs):
        raise AssertionError("auto_region called for a region that cannot hold 0")

    monkeypatch.setattr(cli, "auto_region", no_ladder)
    code, _, err = run(["spectrum", "--potential", "gaussian:1", *flags], capsys)
    assert code == 2
    blob = json.loads(err)["error"]
    assert blob["type"] == "DomainError"
    assert f"real span {span} excludes the eigenvalue 0" in blob["message"]


def test_exit_io_on_unwritable_path(capsys):
    code, _, err = run(
        [
            "spectrum",
            "--potential",
            "gaussian:1",
            *REGION,
            "--out",
            "/nonexistent-dir/x.json",
        ],
        capsys,
    )
    assert code == 3


def test_unknown_config_key_is_numerical_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wavelength = 7\n")
    code, _, err = run(["spectrum", "--config", str(bad)], capsys)
    assert code == 2
    assert "wavelength" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "text,command,message",
    [
        ("potential gaussian:1\n", "spectrum", "config line 1: expected key = value, got 'potential gaussian:1'"),
        ("potential = gaussian:1\nseed = abc\n", "simulate", "config value seed = 'abc'"),
    ],
    ids=["no-equals", "seed-not-int"],
)
def test_malformed_config_value_is_numerical_error(text, command, message, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    code, out, err = run([command, "--config", str(bad)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].startswith(message)


@pytest.mark.parametrize(
    "text,command,args",
    [("tol = nan\n", "simulate", ["-T", "100"]), ("eps = 0.3\n", "spectrum", list(REGION))],
    ids=["simulate-tol", "spectrum-eps"],
)
def test_a_config_key_the_subcommand_has_no_flag_for_is_refused(text, command, args, tmp_path, capsys):
    # such a key was taken and echoed unused: simulate wrote "tol": NaN, invalid JSON
    cfgfile = tmp_path / "extra.cfg"
    cfgfile.write_text(text)
    out = tmp_path / "out.json"
    code, _, err = run([command, "--potential", "gaussian:1", *args, "--config", str(cfgfile), "--out", str(out)], capsys)
    assert code == 2 and not out.exists()
    key = text.split(" = ")[0]
    assert json.loads(err)["error"] == {"type": "DomainError", "message": f"config key {key!r} is not a setting of {command}"}
