import csv
import hashlib
import io
import json
import math

import pytest
from click.testing import CliRunner

from radspec import spectrum
from radspec.analysis import branch_fit_points, compare_fit_to_published, fit_cubic
from radspec.cli import main

ROOT_83 = math.sqrt(8.0 / 3.0)


@pytest.fixture()
def runner():
    return CliRunner()


def rows_of(output):
    return list(csv.reader(io.StringIO(output)))


# --- truncate ----------------------------------------------------------------

def test_truncate_low_order(runner):
    res = runner.invoke(main, ["truncate", "--l", "0", "--n-max", "1", "--i-max", "3"])
    assert res.exit_code == 0
    rows = rows_of(res.output)
    assert rows[0] == ["l", "n", "i", "nu", "W"]
    assert len(rows) == 4
    assert float(rows[2][3]) == pytest.approx(ROOT_83, rel=1e-9)
    assert float(rows[2][4]) == pytest.approx(10.0 / 3.0, rel=1e-9)


def test_truncate_single_row(runner):
    res = runner.invoke(main, ["truncate", "--n-max", "0", "--i-max", "1"])
    assert res.exit_code == 0
    assert rows_of(res.output)[1] == ["0", "0", "1", "0.0", "2.0"]


def test_truncate_default_scope_row_count(runner):
    res = runner.invoke(main, ["truncate"])
    assert res.exit_code == 0
    assert len(rows_of(res.output)) == 67  # header + 66 points


def test_truncate_json(runner):
    res = runner.invoke(main, ["truncate", "--n-max", "0", "--i-max", "1",
                               "--format", "json"])
    payload = json.loads(res.output)
    assert payload == [{"l": 0, "n": 0, "i": 1, "nu": 0.0, "W": 2.0}]


@pytest.mark.parametrize("l,digest", [
    (0, "9dd17f292823d7f6afbfa2bcd6bd83b1601db53d4d1ca34f48c648ee90651c5d"),
    (1, "5c862744740fec138eb618dd8a81dbc9d9bcc7bd8bed0fc62956ee37b5c582f6"),
    (2, "2a66d3d34bbe985430f4d61ef0c34b79f4c1e83f1d54eb36d8923316fa053af2"),
], ids=["l=0", "l=1", "l=2"])
def test_truncate_csv_bytes_are_pinned(runner, l, digest):
    # each root is an exact dyadic cell rounded once (math.sqrt, float(Fraction)),
    # so these bytes do not depend on the platform
    res = runner.invoke(main, ["truncate", "--l", str(l), "--n-max", "22", "--i-max", "23"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def test_csv_round_trip_is_byte_identical(runner):
    res = runner.invoke(main, ["truncate", "--n-max", "5"])
    first = res.output
    parsed = rows_of(first)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in parsed:
        writer.writerow(row)
    assert buf.getvalue() == first


# --- spectrum ----------------------------------------------------------------

def test_spectrum_oscillator_intercepts(runner):
    res = runner.invoke(main, ["spectrum", "--l", "0", "--branches", "3",
                               "--nu", "0"])
    assert res.exit_code == 0
    rows = rows_of(res.output)
    assert rows[0] == ["l", "j", "nu", "W"]
    Ws = [float(r[3]) for r in rows[1:]]
    assert Ws == pytest.approx([2.0, 6.0, 10.0], abs=1e-7)


def test_spectrum_higher_momentum(runner):
    res = runner.invoke(main, ["spectrum", "--l", "1", "--branches", "1",
                               "--nu", "0"])
    assert float(rows_of(res.output)[1][3]) == pytest.approx(4.0, abs=1e-7)


def test_spectrum_matches_truncation_root(runner):
    res = runner.invoke(main, ["spectrum", "--l", "0", "--branches", "1",
                               "--nu", str(ROOT_83)])
    assert float(rows_of(res.output)[1][3]) == pytest.approx(10.0 / 3.0, abs=1e-6)


def test_spectrum_range_flags(runner):
    res = runner.invoke(main, ["spectrum", "--l", "0", "--branches", "1",
                               "--nu-min", "0", "--nu-max", "1", "--nu-count", "3"])
    rows = rows_of(res.output)[1:]
    assert [float(r[2]) for r in rows] == pytest.approx([0.0, 0.5, 1.0])
    Ws = [float(r[3]) for r in rows]
    assert Ws[0] < Ws[1] < Ws[2]


@pytest.mark.parametrize("nu_min, nu_max, values", [
    ("1", "0", ["0", "0.5", "1"]),
    ("0", "0", ["0"]),
], ids=["reversed", "degenerate"])
def test_spectrum_range_is_sorted_as_the_nu_values(runner, nu_min, nu_max, values):
    res = runner.invoke(main, ["spectrum", "--nu-min", nu_min, "--nu-max", nu_max,
                               "--nu-count", "3"])
    want = runner.invoke(main, ["spectrum", *(a for v in values for a in ("--nu", v))])
    assert res.exit_code == 0 and want.exit_code == 0
    assert res.output == want.output


def test_spectrum_without_grid_is_usage_error(runner):
    res = runner.invoke(main, ["spectrum", "--l", "0"])
    assert res.exit_code == 2


@pytest.mark.parametrize("flags", [
    ["--nu", "nan"],
], ids=["nu-nan"])
def test_spectrum_invalid_config_is_domain_error(runner, flags):
    """A rejected solver input exits 1 with a message, not a traceback."""
    res = runner.invoke(main, ["spectrum", "--nu", "0", *flags])
    assert res.exit_code == 1
    assert "error: ValueError" in res.output
    assert not isinstance(res.exception, ValueError)


def test_spectrum_exact_where_the_default_grid_cuts_the_tail(runner):
    # the tail check belongs to sampling; W is exact at l = 40, nu = 0
    res = runner.invoke(main, ["spectrum", "--l", "40", "--nu", "0"])
    assert res.exit_code == 0
    assert [float(r[3]) for r in rows_of(res.output)[1:]] == pytest.approx([82, 86, 90],
                                                                          rel=1e-12)


@pytest.mark.parametrize("args", [
    ["spectrum", "--nu-min", "0", "--nu-max", "1", "--nu-count", "0"],
    ["spectrum", "--nu-min", "0", "--nu-max", "1", "--nu-count", "-1"],
    ["spectrum", "--nu", "0", "--branches", "0"],
    ["spectrum", "--nu", "0", "--branches", "-1"],
    ["energy", "--theta-min", "1", "--theta-max", "2", "--theta-steps", "0"],
    ["truncate", "--n-max", "-1"],
    ["truncate", "--i-max", "0"],
    ["fit", "--n-max", "-1"],
    ["figure", "--out-dir", "bad", "--curve-samples", "-1"],
], ids=["nu-count-0", "nu-count-neg", "branches", "branches-neg", "theta-steps-0",
        "truncate-n-max", "truncate-i-max", "fit-n-max", "curve-samples-neg"])
def test_empty_dataset_request_is_usage_error(runner, args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)     # a figure that got past its options would write here
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output


# --- verify ------------------------------------------------------------------

def test_verify_residual_single_solution(runner):
    res = runner.invoke(main, ["verify", "--residual", "--n", "1", "--i", "1",
                               "--l", "0"])
    assert res.exit_code == 0
    assert "PASS" in res.output and "FAIL" not in res.output


def test_verify_residual_index_zero_is_out_of_range(runner):
    res = runner.invoke(main, ["verify", "--residual", "--n", "1", "--i", "0",
                               "--l", "0"])
    assert res.exit_code == 1
    assert "error: IndexOutOfRange" in res.output


def test_verify_residual_index_without_order_is_usage_error(runner):
    res = runner.invoke(main, ["verify", "--residual", "--i", "1", "--l", "0"])
    assert res.exit_code == 2
    assert "--i needs --n" in res.output


@pytest.mark.parametrize("suite", ["--residual", "--all", "--match"])
@pytest.mark.parametrize("scope", [["--n-max", "-1"], ["--i-max", "0"], ["--n", "-1"]])
def test_verify_empty_scope_is_usage_error(runner, suite, scope):
    res = runner.invoke(main, ["verify", suite, "--l", "0", *scope])
    assert res.exit_code == 2
    assert "Invalid value" in res.output and "PASS" not in res.output


@pytest.mark.parametrize("single", [["--n", "3"], ["--n", "3", "--i", "2"]])
def test_verify_single_solution_without_residual_suite_is_usage_error(runner, single):
    res = runner.invoke(main, ["verify", "--hft", "--nu", "1", "--l", "0", *single])
    assert res.exit_code == 2
    assert "--n and --i need --residual or --all" in res.output


def test_verify_hft_single_nu_checks_every_l(runner):
    res = runner.invoke(main, ["verify", "--hft", "--l", "1", "--l", "2",
                               "--nu", "1.0"])
    assert res.exit_code == 0
    assert "hft l=1 nu=1 j=0" in res.output
    assert "hft l=2 nu=1 j=0" in res.output


def test_verify_hft_branch_limits_the_sweep(runner):
    res = runner.invoke(main, ["verify", "--hft", "--l", "0", "--branch", "2"])
    assert res.exit_code == 0
    names = [line.split()[1:5] for line in res.output.splitlines()
             if line.startswith(("PASS", "FAIL"))]
    assert names == [["hft", "l=0", f"nu={nu}", "j=2"] for nu in ("0", "2.5", "5")]
    assert runner.invoke(main, ["verify", "--hft", "--branch", "-1"]).exit_code == 2


def test_verify_hft_ground_state(runner):
    res = runner.invoke(main, ["verify", "--hft", "--l", "0", "--nu", "0",
                               "--branch", "0"])
    assert res.exit_code == 0
    assert "0.88622" in res.output  # sqrt(pi)/2 from both estimates


def test_verify_hft_at_strong_coupling(runner):
    # the l = 0 states shrink towards r = 0 as nu grows; the grid must resolve them
    res = runner.invoke(main, ["verify", "--hft", "--l", "0", "--nu", "300"])
    assert res.exit_code == 0, res.output


def test_verify_match_small_scope(runner):
    res = runner.invoke(main, ["verify", "--match", "--l", "0", "--n-max", "3"])
    assert res.exit_code == 0
    assert "match l=0" in res.output


def test_verify_match_zero_tolerance_is_a_failed_check(runner):
    # the verdict is the check's alone: a tolerance no distance meets fails the row
    res = runner.invoke(main, ["verify", "--match", "--l", "0", "--n-max", "2",
                               "--match-tol", "0"])
    assert res.exit_code == 1
    assert "FAIL  match l=0" in res.output
    assert "error:" not in res.output


def test_verify_without_suite_is_usage_error(runner):
    res = runner.invoke(main, ["verify"])
    assert res.exit_code == 2


def test_verify_hft_honours_a_tight_tolerance(runner):
    res = runner.invoke(main, ["verify", "--hft", "--l", "0", "--hft-tol", "1e-12"])
    assert res.exit_code == 1
    assert "FAIL  hft l=0 nu=0 j=0" in res.output


def test_verify_writes_json_report(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--residual", "--n", "0", "--i", "1",
                               "--l", "0", "--out", str(out)])
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    check = report["checks"][0]
    assert check["passed"] is True
    assert check["tol"] == 1e-8 and 0 <= check["value"] <= check["tol"]
    assert check["margin"] == check["value"] / check["tol"] <= 1
    assert check["elapsed"] > 0

    res = runner.invoke(main, ["verify", "--hft", "--l", "0", "--nu", "0",
                               "--hft-tol", "1e-12", "--out", str(out)])
    assert res.exit_code == 1
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    check = report["checks"][0]
    assert check["passed"] is False
    assert check["tol"] == 1e-12 and check["value"] > check["tol"]
    assert check["margin"] == check["value"] / check["tol"] > 1
    assert check["elapsed"] > 0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_json_writes_infinite_value_as_null(runner, tmp_path, monkeypatch):
    from radspec import checks
    monkeypatch.setattr(checks, "hft", lambda l, nu, j, tol: checks.Check(
        f"hft l={l} nu={nu:g} j={j}", math.inf, tol, "slope not positive"))
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--hft", "--l", "0", "--nu", "0",
                               "--out", str(out)])
    assert res.exit_code == 1
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["checks"][0]["value"] is None
    assert report["checks"][0]["margin"] is None
    assert report["checks"][0]["passed"] is False


# --- fit ---------------------------------------------------------------------

def test_fit_branch_zero(runner):
    # the README's example, all four lines
    res = runner.invoke(main, ["fit", "--l", "0", "--branch", "0", "--n-max", "22"])
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        "branch j=0, l=0: 23 points, nu in [0.000000, 12.087918]",
        "W = 2 + (0.8495010748) nu + (-0.02890302939) nu^2 + (0.000812614776) nu^3",
        "rms residual 6.905e-03",
        "max deviation from published cubic: 0.0125 over nu in [0.0000, 12.0879]",
    ]


def test_fit_report_writes_the_published_deviation(runner, tmp_path):
    out = tmp_path / "fit.json"
    res = runner.invoke(main, ["fit", "--l", "0", "--branch", "2", "--out", str(out)])
    assert res.exit_code == 0
    model = fit_cubic(branch_fit_points(0, 2), 10.0, branch=2, l=0)
    report = json.loads(out.read_text())
    assert report["max_deviation_from_published"] == compare_fit_to_published(model)
    assert report["fit_domain"] == list(model.fit_domain)


def test_fit_underdetermined_fails(runner):
    res = runner.invoke(main, ["fit", "--l", "0", "--branch", "0", "--n-max", "2"])
    assert res.exit_code == 1
    assert "DegenerateFit" in res.output


def test_fit_intercept_pinned_for_branch_one(runner, tmp_path):
    out = tmp_path / "fit.json"
    res = runner.invoke(main, ["fit", "--l", "0", "--branch", "1",
                               "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["intercept"] == 6.0


# --- energy ------------------------------------------------------------------

def test_energy_explicit_eigenvalue(runner):
    res = runner.invoke(main, ["energy", "--W", "2", "--theta", "2"])
    assert res.exit_code == 0
    rows = rows_of(res.output)
    assert rows[0] == ["W", "E"]
    assert float(rows[1][1]) == pytest.approx(1.0, rel=1e-12)


def test_energy_invalid_alpha_fails(runner):
    res = runner.invoke(main, ["energy", "--theta", "1", "--varpi", "-0.25"])
    assert res.exit_code == 1
    assert "InvalidAlpha" in res.output


def test_energy_theta_sweep_is_continuous(runner):
    res = runner.invoke(main, ["energy", "--theta-min", "1", "--theta-max", "2",
                               "--theta-steps", "3", "--a", "0.5"])
    assert res.exit_code == 0
    rows = rows_of(res.output)
    assert rows[0] == ["theta", "E"]
    Es = [float(r[1]) for r in rows[1:]]
    assert len(Es) == 3
    assert Es[0] < Es[1] < Es[2]


def test_energy_sweep_builds_its_bases_as_one_stack(runner, monkeypatch):
    # the 50 nu of the sweep need 11 shifts, all known before the first solve
    stacks, build = [], spectrum._build

    def counting(keys):
        stacks.append(list(keys))
        return build(keys)

    monkeypatch.setattr(spectrum, "_bases", type(spectrum._bases)())
    monkeypatch.setattr(spectrum, "_build", counting)
    res = runner.invoke(main, ["energy", "--theta-min", "1", "--theta-max", "2",
                               "--theta-steps", "50", "--a", "-3"])
    assert res.exit_code == 0
    assert [len(keys) for keys in stacks] == [11]


def test_energy_sweep_checks_every_theta_before_it_solves(runner):
    # theta = 0.01 maps to nu ~ 1.7e4, which the basis cannot resolve, but theta = -0.245
    # has alpha^2 < 0: the invalid input is reported, not the solve that would fail first
    res = runner.invoke(main, ["energy", "--theta-min", "0.01", "--theta-max", "-0.5",
                               "--theta-steps", "3", "--a", "50", "--varpi", "0.1"])
    assert res.exit_code == 1
    assert "error: InvalidAlpha" in res.output and "NotConverged" not in res.output


@pytest.mark.parametrize("args", [
    ["--W", "2", "--theta", "nan"],
    ["--W", "2", "--theta", "inf"],
    ["--W", "2", "--theta", "1", "--varpi", "inf"],
    ["--W", "nan", "--theta", "1"],
    ["--theta", "1", "--m", "inf"],
    ["--W", "2", "--theta", "1", "--a", "nan"],
], ids=["theta-nan", "theta-inf", "varpi-inf", "W-nan", "m-inf", "a-nan"])
def test_energy_non_finite_input_is_domain_error(runner, args):
    # each printed a nan energy with exit 0 when only m > 0 and alpha^2 > 0 were checked
    res = runner.invoke(main, ["energy", *args])
    assert res.exit_code == 1
    assert "error: ValueError" in res.output


def test_energy_without_inputs_is_usage_error(runner):
    res = runner.invoke(main, ["energy"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [["fit"], ["energy", "--theta", "2"]], ids=["fit", "energy"])
def test_negative_branch_is_usage_error(runner, args):
    res = runner.invoke(main, [*args, "--branch", "-1"])
    assert res.exit_code == 2
    assert "--branch" in res.output


# --- config file -------------------------------------------------------------

def test_config_file_supplies_defaults(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"truncate": {"n_max": 1, "i_max": 1}}))
    res = runner.invoke(main, ["--config", str(cfg), "truncate"])
    assert len(rows_of(res.output)) == 3  # header + n=0,1 first roots


def test_explicit_flag_overrides_config(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"truncate": {"n_max": 1, "i_max": 1}}))
    res = runner.invoke(main, ["--config", str(cfg), "truncate", "--i-max", "2"])
    assert len(rows_of(res.output)) == 4


# --- figure ------------------------------------------------------------------

def test_figure_exact_outputs_are_pinned(runner, tmp_path):
    # points.csv and parabola.csv come from the exact route alone, so eigensolver
    # round-off, which moves curves.csv, must leave their bytes unchanged
    res = runner.invoke(main, ["figure", "--out-dir", str(tmp_path), "--curve-samples", "5"])
    assert res.exit_code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("points.csv", "parabola.csv")}
    assert digests == {
        "points.csv": "829470fae05e4e1f95b08475c1b733e9c31411e8149e6b38cc73ff54d96d4b60",
        "parabola.csv": "a9f326ca413d0447afa920599b2d43ab0b01a5e517988ea9ce10f28188382d75",
    }


def test_figure_emits_aligned_datasets(runner, tmp_path):
    out = tmp_path / "fig"
    res = runner.invoke(main, ["figure", "--out-dir", str(out),
                               "--curve-samples", "5"])
    assert res.exit_code == 0
    points = list(csv.DictReader(open(out / "points.csv")))
    curves = list(csv.DictReader(open(out / "curves.csv")))
    parabola = list(csv.DictReader(open(out / "parabola.csv")))
    assert (out / "plot_figure.py").exists()

    assert len(points) == 63  # nonnegative-root subset of the 66
    assert all(float(p["nu"]) >= 0 for p in points)

    # every point row reappears on its branch at the same abscissa
    by_branch = {}
    for row in curves:
        by_branch.setdefault(row["j"], {})[row["nu"]] = float(row["W"])
    for p in points:
        branch = str(int(p["i"]) - 1)
        assert p["nu"] in by_branch[branch]
        assert abs(float(p["W"]) - by_branch[branch][p["nu"]]) < 1e-6

    # overlay rows satisfy the order-10 parabola identity
    for row in parabola:
        assert row["kind"] == "parabola_n10"
        nu = float(row["nu"])
        assert float(row["W"]) == pytest.approx(22.0 - nu * nu / 4, abs=1e-9)
