"""Config parsing, presets, execution artifacts and the verify verb."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import amfrac.cli as cli
import amfrac.driver as driver
import amfrac.solvers as solvers
from amfrac.assembly import VNorm
from amfrac.cli import (
    BALANCE_HEADER,
    ConfigError,
    TRACE_HEADER,
    execute,
    load_config,
    main,
    read_trace,
    sweep_point,
    verify_dir,
)
from amfrac.diagnostics import BalanceRow, energy_balance
from amfrac.driver import StepRecord

README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_ct_preset_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[experiment]\nname = ct\n"))
        assert cfg.material.young_E == 100.0
        assert cfg.material.poisson_nu == 0.3
        assert cfg.material.g_c == 1.0
        assert cfg.material.theta == 0.025
        assert cfg.scheme.rho == 0.005
        assert cfg.scheme.T == pytest.approx(100 * 0.005)
        assert cfg.load.ubar_rate == pytest.approx(0.3 / cfg.scheme.T)
        assert cfg.mesh_args["coarse_h"] == 0.1
        assert cfg.mesh_args["fine_h"] == 0.01

    def test_lshape_preset_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[experiment]\nname = lshape\n"))
        assert cfg.material.young_E == 25840.0
        assert cfg.material.poisson_nu == 0.18
        assert cfg.material.g_c == pytest.approx(6.5e-4)
        assert cfg.material.theta == 10.0
        assert cfg.scheme.T == pytest.approx(8.658)
        assert cfg.scheme.rho == pytest.approx(0.08658)

    def test_snapshot_stride_below_one_is_config_error(self, tmp_path):
        path = write(tmp_path, "[experiment]\nname = zerodim\n[output]\n"
                     "snapshot_stride = 0\n")
        with pytest.raises(ConfigError, match="snapshot_stride"):
            load_config(path)

    def test_zerodim_minimal_config(self, tmp_path):
        cfg = load_config(write(tmp_path, "[experiment]\nname = zerodim\n"))
        assert cfg.zerodim is not None
        assert cfg.zerodim.a == 1.0

    def test_overrides(self, tmp_path):
        cfg = load_config(write(tmp_path, """
[experiment]
name = ct
[scheme]
rho = 0.01
alpha = 8
[material]
young_e = 50
[mesh]
coarse_h = 0.2
fine_h = 0.05
"""))
        assert cfg.scheme.rho == 0.01
        assert cfg.scheme.norm_V.alpha == 8.0
        assert cfg.material.young_E == 50.0
        assert cfg.mesh_args["coarse_h"] == 0.2

    def test_output_formats(self, tmp_path):
        text = "[experiment]\nname = zerodim\n[output]\nformats = "
        cfg = load_config(write(tmp_path, text + "csv, \n"))
        assert cfg.formats == ("csv",)
        with pytest.raises(ConfigError, match="formats: unknown vtu"):
            load_config(write(tmp_path, text + "vtu\n"))

    def test_unknown_key_rejected(self, tmp_path):
        # beta0 configured the removed augmented-Lagrangian damage solve
        for key in ("rho_typo", "beta0"):
            with pytest.raises(ConfigError, match="unknown key"):
                load_config(write(tmp_path, f"[experiment]\nname = ct\n[scheme]\n{key} = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, "[experiment]\nname = ct\n[bogus]\nx = 1\n"))

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            load_config(write(tmp_path, "[experiment]\nname = nope\n"))

    def test_parse_error_carries_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line"):
            load_config(write(tmp_path, "[experiment\nname = ct\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_partial_refinement_band_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="band_y0, band_y1"):
            load_config(write(tmp_path, "[experiment]\nname = custom\n[mesh]\n"
                              "band_x0 = 0.4\nband_x1 = 1.0\n"))

    @pytest.mark.parametrize("experiment, mesh", [
        ("ct", "leg_len = 100"),
        ("custom", "leg_len = 100"),
        ("lshape", "side_len = 7"),
        ("lshape", "notch = slit"),
        ("lshape", "notch = damage"),
    ])
    def test_mesh_key_the_geometry_does_not_read_rejected(self, tmp_path,
                                                          experiment, mesh):
        with pytest.raises(ConfigError, match="not read by the"):
            load_config(write(tmp_path, f"[experiment]\nname = {experiment}\n"
                              f"[mesh]\n{mesh}\n"))

    @pytest.mark.parametrize("experiment, section, key", [
        ("zerodim", "material", "young_e = 50"),
        ("zerodim", "mesh", "coarse_h = 0.2"),
        ("zerodim", "load", "mode = traction"),
        ("ct", "zerodim", "a = 2"),
        ("custom", "zerodim", "a = 2"),
        ("lshape", "zerodim", "a = 2"),
    ])
    def test_section_the_experiment_does_not_read_rejected(
            self, tmp_path, experiment, section, key):
        with pytest.raises(ConfigError,
                           match=rf"\[{section}\]: not read by the {experiment}"):
            load_config(write(tmp_path, f"[experiment]\nname = {experiment}\n"
                              f"[{section}]\n{key}\n"))

    def test_material_key_the_preset_does_not_read_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[material\] g_c, theta: "
                           "not read by the ANALYSIS preset"):
            load_config(write(tmp_path, "[material]\npreset = ANALYSIS\n"
                              "g_c = 2\ntheta = 0.1\n"))
        # the lshape experiment's own g_c and theta are not the file's
        cfg = load_config(write(tmp_path, "[experiment]\nname = lshape\n"
                                "[material]\npreset = ANALYSIS\n"))
        assert cfg.material.preset == "ANALYSIS"

    def test_damage_notch_breaks_the_slit_row_left_of_the_tip(self, tmp_path):
        cfg = load_config(write(tmp_path, "[experiment]\nname = custom\n"
                                "[mesh]\nside_len = 2.0\ncoarse_h = 0.25\n"
                                "fine_h = 0.25\nnotch = damage\n"))
        x, y = cfg.mesh.nodes.T
        broken = (y == 1.0) & (x <= 1.0)
        assert cfg.mesh.n_nodes == 81 and np.count_nonzero(broken) == 5
        assert np.array_equal(cfg.z0, np.where(broken, 0.0, 1.0))

    def test_manifest_records_the_refinement_band(self, tmp_path):
        cfg = load_config(write(tmp_path, "[experiment]\nname = custom\n"
                                "[mesh]\ncoarse_h = 0.25\nfine_h = 0.125\n"
                                "band_x0 = 0.5\nband_x1 = 1.0\n"
                                "band_y0 = 0.25\nband_y1 = 0.75\n"))
        assert cli._manifest(cfg)["mesh"] == {
            "side_len": 1.0, "coarse_h": 0.25, "fine_h": 0.125,
            "refine_band": ((0.5, 1.0), (0.25, 0.75)), "notch": "slit"}

    def test_invalid_value_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="scheme.rho"):
            load_config(write(tmp_path, "[experiment]\nname = ct\n[scheme]\nrho = abc\n"))


ZERODIM_CFG = """
[experiment]
name = zerodim
[output]
directory = {out}
store_all_snapshots = true
"""

CUSTOM_CFG = """
[experiment]
name = custom
[material]
young_e = 100
poisson_nu = 0.3
g_c = 1.0
theta = 0.1
[mesh]
side_len = 1.0
coarse_h = 0.125
fine_h = 0.125
notch = slit
[scheme]
rho = 0.05
alpha = 4
[load]
mode = dirichlet
u_max = 0.3
direction = y
[output]
directory = {out}
store_all_snapshots = true
"""


TRACTION_H1_CFG = """
[experiment]
name = ct
[material]
preset = ANALYSIS
kappa_r = 0.5
[mesh]
coarse_h = 0.125
fine_h = 0.125
[scheme]
rho = 0.05
norm_v = h1
t = 2.0
[load]
mode = traction
traction_rate = 2.0
direction = x
[output]
directory = {out}
formats = csv
"""

# the lshape preset on a coarse grid, to T = 2 at the preset's ramp rate
# (u_max / T = 1 / 8.658)
LSHAPE_COARSE_CFG = """
[experiment]
name = lshape
[mesh]
coarse_h = 50
fine_h = 25
[scheme]
t = 2.0
[load]
u_max = 0.231
[output]
directory = {out}
formats = csv
"""

# the same panel refined in the band (0, 300) x (0, 100) only, to T = 0.2 at
# the preset's ramp rate
LSHAPE_BAND_CFG = """
[experiment]
name = lshape
[mesh]
coarse_h = 50
fine_h = 25
band_x0 = 0
band_x1 = 300
band_y0 = 0
band_y1 = 100
[scheme]
t = 0.2
[load]
u_max = 0.0231
[output]
directory = {out}
formats = csv
"""


class TestArtifactFormat:
    def test_headers_are_the_dataclass_fields(self):
        fields = [f.name for f in dataclasses.fields(StepRecord)]
        assert TRACE_HEADER == ",".join(fields)
        assert fields[-1] == "am_converged"
        assert BALANCE_HEADER == ",".join(
            f.name for f in dataclasses.fields(BalanceRow))

    @pytest.mark.parametrize("text", [ZERODIM_CFG, CUSTOM_CFG, TRACTION_H1_CFG],
                             ids=["zerodim", "custom", "traction-h1"])
    def test_trace_csv_reads_back_as_the_records(self, tmp_path, monkeypatch,
                                                 text):
        traces = []
        for name in ("run", "run_zero_dim"):
            def keep(*args, _run=getattr(cli, name), **kwargs):
                traces.append(_run(*args, **kwargs))
                return traces[-1]
            monkeypatch.setattr(cli, name, keep)
        out = tmp_path / "out"
        cfg = load_config(write(tmp_path, text.format(out=out)))
        assert execute(cfg) == 0
        rows = (out / "trace.csv").read_text().splitlines()
        (trace,) = traces
        read = read_trace(rows[1:], trace.scheme, trace.load_mode)
        assert read.records == trace.records
        # with the initial energy, which trace.csv lacks, the ledger of the
        # read-back trace is balance.csv
        read.energy_init = trace.energy_init
        balance = (out / "balance.csv").read_text().splitlines()
        assert [cli._csv_row(row) for row in
                energy_balance(read, cfg.load).rows] == balance[1:]

    def test_read_trace_of_an_h1_scheme_flags_the_surrogate(self, h1_trace):
        mesh, model, load, params, trace = h1_trace
        rows = [cli._csv_row(r) for r in trace.records]
        read = read_trace(rows, params, load.mode)
        assert read.scheme.norm_V.dual_is_surrogate

    def test_readme_demo_runs_and_verifies(self, tmp_path, capsys):
        text = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        out = tmp_path / "demo"
        assert "directory = out/demo\n" in text
        text = text.replace("directory = out/demo", f"directory = {out}")
        assert execute(load_config(write(tmp_path, text))) == 0
        assert verify_dir(out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)


class TestExecute:
    def test_h1_ball_with_damage_notch_stays_in_the_ball(self, tmp_path,
                                                         monkeypatch):
        """The damage solve holds nodes at z = 0 inside its active-set
        iteration, so its increment stays in the H1 ball to T."""
        reports = []  # (report, z_prev) of each damage solve

        def solve_z(u, z_prev, *args):
            reports.append((solvers.solve_z(u, z_prev, *args), z_prev))
            return reports[-1][0]

        monkeypatch.setattr(driver, "solve_z", solve_z)
        out = tmp_path / "h1"
        text = TRACTION_H1_CFG.replace("fine_h = 0.125\n",
                                       "fine_h = 0.125\nnotch = damage\n")
        cfg = load_config(write(tmp_path, text.format(out=out)))
        assert execute(cfg) == 0
        assert verify_dir(out) == 0
        assert max(r.lower_clamps for r, _ in reports) > 0
        tol = cfg.scheme.tol_constraint
        ball = VNorm(cfg.mesh, cfg.scheme.norm_V)
        for r, z_prev in reports:
            assert r.z.min() >= -tol
            assert np.count_nonzero(np.abs(r.z) <= tol) >= r.lower_clamps
            assert ball.value(r.z - z_prev) <= cfg.scheme.rho * (1.0 + 1e-6)

    @pytest.mark.parametrize("text", [LSHAPE_COARSE_CFG, LSHAPE_BAND_CFG],
                             ids=["default_band", "band_0_300"])
    def test_coarse_lshape_reaches_T_and_verifies(self, tmp_path, capsys,
                                                  text):
        out = tmp_path / "ls"
        cfg = load_config(write(tmp_path, text.format(out=out)))
        assert execute(cfg) == 0
        assert verify_dir(out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS final time reached" in lines
        assert all(line.startswith("PASS") for line in lines)

    def test_zerodim_run_artifacts(self, tmp_path):
        out = tmp_path / "zd"
        cfg = load_config(write(tmp_path, ZERODIM_CFG.format(out=out)))
        assert execute(cfg) == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER
        assert len(trace) > 10
        balance = (out / "balance.csv").read_text().splitlines()
        assert balance[0] == BALANCE_HEADER
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scheme"]["rho"] == 0.02
        assert "zerodim" in manifest

    @pytest.mark.parametrize("text", [ZERODIM_CFG, CUSTOM_CFG],
                             ids=["zerodim", "custom"])
    def test_determinism(self, tmp_path, text):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = load_config(write(tmp_path, text.format(out=out1), "a.cfg"))
        cfg2 = load_config(write(tmp_path, text.format(out=out2), "b.cfg"))
        execute(cfg1)
        execute(cfg2)
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_custom_fem_run_with_vtk(self, tmp_path):
        out = tmp_path / "fem"
        cfg = load_config(write(tmp_path, CUSTOM_CFG.format(out=out)))
        assert execute(cfg) == 0
        vtks = sorted(out.glob("fields_*.vtk"))
        assert vtks, "field snapshots must be exported"
        head = vtks[0].read_text().splitlines()
        assert head[0] == "# vtk DataFile Version 2.0"
        assert "DATASET UNSTRUCTURED_GRID" in head
        body = vtks[0].read_text()
        assert "CELL_TYPES" in body and "\n9\n" in body
        assert "SCALARS damage double" in body
        assert "VECTORS displacement double" in body

    def test_verify_passes_on_artifacts(self, tmp_path, capsys):
        out = tmp_path / "zd"
        cfg = load_config(write(tmp_path, ZERODIM_CFG.format(out=out)))
        execute(cfg)
        assert verify_dir(out) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_verify_flags_tampered_trace(self, tmp_path, capsys):
        out = tmp_path / "zd"
        cfg = load_config(write(tmp_path, ZERODIM_CFG.format(out=out)))
        execute(cfg)
        rows = (out / "trace.csv").read_text().splitlines()
        cells = rows[2].split(",")
        cells[2] = "99.0"  # absurd time increment
        rows[2] = ",".join(cells)
        (out / "trace.csv").write_text("\n".join(rows) + "\n")
        assert verify_dir(out) != 0
        assert "FAIL" in capsys.readouterr().out

    def test_verify_flags_shifted_interior_step(self, tmp_path, capsys):
        # dt stays inside [0, rho]; only the normalization identity sees it
        out = tmp_path / "zd"
        cfg = load_config(write(tmp_path, ZERODIM_CFG.format(out=out)))
        execute(cfg)
        rows = (out / "trace.csv").read_text().splitlines()
        cells = rows[3].split(",")  # k = 2, a full elastic step
        cells[2] = repr(float(cells[2]) - 1e-6 * cfg.scheme.rho)
        rows[3] = ",".join(cells)
        (out / "trace.csv").write_text("\n".join(rows) + "\n")
        assert verify_dir(out) != 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert "FAIL normalization identity" in lines
        assert "PASS dt within [0, rho]" in lines
        assert "not checked: irreversibility" in captured.err

    def test_verify_fails_on_trace_without_steps(self, tmp_path, capsys):
        # a header-only trace, an empty trace, a missing manifest and a
        # missing balance.csv each give one FAIL line
        cases = [("trace.csv", TRACE_HEADER + "\n"), ("trace.csv", ""),
                 ("manifest.json", None), ("balance.csv", None)]
        for i, (name, text) in enumerate(cases):
            out = tmp_path / f"zd{i}"
            execute(load_config(write(tmp_path, ZERODIM_CFG.format(out=out))))
            if text is None:
                (out / name).unlink()
            else:
                (out / name).write_text(text)
            assert verify_dir(out) == 1
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1 and lines[0].startswith("FAIL"), lines

    @pytest.mark.parametrize("text", [ZERODIM_CFG, CUSTOM_CFG, TRACTION_H1_CFG],
                             ids=["zerodim", "custom", "traction-h1"])
    def test_verify_fails_on_a_ledger_that_is_not_the_traces(self, tmp_path,
                                                              capsys, text):
        """An edit of ``balance.csv`` that keeps every row's identity
        ``dE + R_inc + visc - work = residual`` and the running sum of the
        residuals is caught: the ledger is derived again from
        ``trace.csv``."""
        out = tmp_path / "out"
        assert execute(load_config(write(tmp_path, text.format(out=out)))) == 0
        path = out / "balance.csv"
        header, *rows = path.read_text().splitlines()
        ledger = cli._from_rows(BalanceRow, rows)
        j = len(ledger) // 2
        ledger[j].R_inc += 1.0
        ledger[j].residual += 1.0
        for row in ledger[j:]:
            row.cum_residual += 1.0
        path.write_text("\n".join([header, *map(cli._csv_row, ledger)]) + "\n")
        assert verify_dir(out) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if not line.startswith("PASS")] == [
            "FAIL balance.csv is the ledger of trace.csv"]

    def test_a_rerun_replaces_the_snapshots(self, tmp_path):
        """A second run into a directory leaves the files that a fresh
        directory gets: the first run's VTK snapshots are gone."""
        def run_into(out, T):
            text = CUSTOM_CFG.format(out=out).replace("[scheme]\n",
                                                      f"[scheme]\nt = {T}\n")
            assert execute(load_config(write(tmp_path, text))) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()
                    if p.name != "manifest.json"}  # it records the directory

        first = run_into(tmp_path / "again", 0.3)
        second = run_into(tmp_path / "again", 0.1)
        assert len(first) > len(second)
        assert second == run_into(tmp_path / "fresh", 0.1)

    @pytest.mark.parametrize("name, edit", [
        ("trace.csv", lambda rows: rows[:3] + ["3,abc"] + rows[4:]),
        ("manifest.json", lambda rows: ["{"]),
        ("balance.csv", lambda rows: rows[:2] + ["1,0.5"]),
        # row i + 1 is step i; step 47 is a jump, so dt + ||dz||_V = rho
        # holds on both sides of the gap
        ("trace.csv", lambda rows: rows[:48] + rows[49:]),
        ("trace.csv", lambda rows: rows[:49] + rows[48:]),
        ("balance.csv", lambda rows: rows[:15] + [
            "99," + rows[15].split(",", 1)[1]] + rows[16:]),
        ("balance.csv", lambda rows: rows[:1]),
    ], ids=["trace-row-cut", "manifest-not-json", "balance-row-cut",
            "trace-step-missing", "trace-step-repeated", "balance-step-99",
            "balance-header-only"])
    def test_verify_fails_on_malformed_artifact(self, tmp_path, capsys, name,
                                                edit):
        out = tmp_path / "zd"
        execute(load_config(write(tmp_path, ZERODIM_CFG.format(out=out))))
        path = out / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert verify_dir(out) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"FAIL {name} is malformed"]

    @pytest.mark.parametrize("name", ["manifest.json", "trace.csv",
                                      "balance.csv"])
    def test_verify_fails_on_an_artifact_that_is_not_utf8(self, tmp_path,
                                                          capsys, name):
        out = tmp_path / "zd"
        execute(load_config(write(tmp_path, ZERODIM_CFG.format(out=out))))
        path = out / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert verify_dir(out) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"FAIL {name} is malformed"]

    def test_verify_fails_on_permuted_balance_header(self, tmp_path, capsys):
        """``balance.csv``'s header is checked like ``trace.csv``'s: two
        swapped columns would otherwise be read by position."""
        out = tmp_path / "zd"
        execute(load_config(write(tmp_path, ZERODIM_CFG.format(out=out))))
        path = out / "balance.csv"
        rows = path.read_text().splitlines()
        assert rows[0].endswith(",residual,cum_residual")
        rows[0] = rows[0].replace(",residual,cum_residual",
                                  ",cum_residual,residual")
        path.write_text("\n".join(rows) + "\n")
        assert verify_dir(out) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL balance.csv header mismatch"]

    def test_verify_fails_on_unconverged_am_step(self, tmp_path, capsys):
        # two AM iterations are too few for some steps of the scalar run;
        # the run itself goes on, verify must not
        out = tmp_path / "zd"
        cfg = load_config(write(tmp_path, ZERODIM_CFG.format(out=out)
                                + "[scheme]\nrho = 0.02\nmax_am_iters = 2\n"))
        assert execute(cfg) == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0].endswith(",am_converged")
        assert {r.rsplit(",", 1)[1] for r in rows[1:]} == {"0", "1"}
        assert verify_dir(out) == 1
        assert "FAIL AM converged" in capsys.readouterr().out.splitlines()
        execute(load_config(write(tmp_path, ZERODIM_CFG.format(out=out))))
        assert verify_dir(out) == 0
        assert "PASS AM converged" in capsys.readouterr().out.splitlines()

    def test_lalpha_ball_below_2_names_the_infinite_curvature(self, tmp_path,
                                                               capsys):
        """Below alpha = 2 the ball's curvature is infinite on an element
        where ``v = 0``.  When such an element has a free node, the damage
        solve fails with that cause, and no numpy warning is raised."""
        out = tmp_path / "tl"
        text = TRACTION_H1_CFG.replace("norm_v = h1", "alpha = 1.5")
        cfg = load_config(write(tmp_path, text.format(out=out)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert execute(cfg) == 1
        err = capsys.readouterr().err
        assert "ball curvature is infinite on the free block" in err
        assert "iteration budget" not in err
        rows = (out / "trace.csv").read_text().splitlines()
        assert int(rows[-1].split(",", 1)[0]) == 24

    def test_zerodim_trace_written_incrementally(self, tmp_path,
                                                 monkeypatch):
        out = tmp_path / "zd"
        cfg = load_config(write(tmp_path, ZERODIM_CFG.format(out=out)))
        monkeypatch.setattr(driver, "_step_budget", lambda params: 5)
        assert execute(cfg) == 1
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == TRACE_HEADER
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(6))

    def test_h1_manifest_records_no_alpha(self, tmp_path, capsys):
        out = tmp_path / "zd"
        text = ZERODIM_CFG.format(out=out) + "[scheme]\nnorm_v = h1\n"
        assert execute(load_config(write(tmp_path, text))) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["scheme"]["norm_V"] == "h1"
        assert "alpha" not in manifest["scheme"]
        assert verify_dir(out) == 0
        # a manifest that still records an alpha for the H1 ball verifies
        manifest["scheme"]["alpha"] = 2.0
        path.write_text(json.dumps(manifest))
        assert verify_dir(out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_lalpha_manifest_without_alpha_is_malformed(self, tmp_path,
                                                        capsys):
        out = tmp_path / "zd"
        execute(load_config(write(tmp_path, ZERODIM_CFG.format(out=out))))
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["scheme"]["norm_V"] == "lalpha"
        del manifest["scheme"]["alpha"]
        path.write_text(json.dumps(manifest))
        assert verify_dir(out) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL manifest.json is malformed"]

    @pytest.mark.parametrize("formats, vtk", [("csv", False), ("vtk", True),
                                              ("", False)],
                             ids=["csv", "vtk", "empty"])
    def test_formats_only_adds_vtk(self, tmp_path, formats, vtk):
        """The csv artifacts and the manifest are written whatever
        ``formats`` says, because ``verify`` reads them."""
        out = tmp_path / "fem"
        text = (CUSTOM_CFG.format(out=out).replace("[scheme]\n",
                                                   "[scheme]\nt = 0.1\n")
                + f"formats = {formats}\n")
        cfg = load_config(write(tmp_path, text))
        assert execute(cfg) == 0
        files = {p.name for p in out.iterdir()}
        steps = len((out / "trace.csv").read_text().splitlines()) - 1
        assert steps > 1
        snapshots = ({f"fields_{k:06d}.vtk" for k in range(steps)} if vtk
                     else set())
        assert files == {"manifest.json", "trace.csv", "balance.csv",
                         *snapshots}


class TestMain:
    def test_run_verb(self, tmp_path):
        out = tmp_path / "zd"
        cfg_path = write(tmp_path, ZERODIM_CFG.format(out=out))
        assert main(["run", str(cfg_path)]) == 0
        assert (out / "trace.csv").exists()

    def test_run_out_overrides_the_output_directory(self, tmp_path):
        out, other = tmp_path / "zd", tmp_path / "other"
        cfg_path = write(tmp_path, ZERODIM_CFG.format(out=out))
        assert main(["run", str(cfg_path), "--out", str(other)]) == 0
        assert (other / "trace.csv").exists()
        assert not out.exists()

    def test_sweep_verb(self, tmp_path):
        out = tmp_path / "sweep"
        cfg_path = write(tmp_path, ZERODIM_CFG.format(out=out))
        assert main(["sweep", str(cfg_path), "--param", "rho=0.05,0.025"]) == 0
        assert (out / "rho_0.05" / "trace.csv").exists()
        assert (out / "rho_0.025" / "trace.csv").exists()
        m1 = json.loads((out / "rho_0.05" / "manifest.json").read_text())
        assert m1["scheme"]["rho"] == 0.05

    def test_alpha_sweep_point_keeps_the_ball_kind(self, tmp_path):
        cfg_path = write(tmp_path, CUSTOM_CFG.format(out=tmp_path / "o"))
        norm_V = sweep_point(cfg_path, "alpha", 3.0).scheme.norm_V
        assert (norm_V.kind, norm_V.alpha) == ("lalpha", 3.0)

    @pytest.mark.parametrize("t_line, T", [("", 10.0), ("t = 5.0\n", 5.0)],
                             ids=["default-T", "explicit-T"])
    def test_rho_sweep_point_resolves_T_as_a_config_does(self, tmp_path,
                                                         t_line, T):
        """An unset T follows rho (``T = 100 rho``) and keeps ``u_max``; an
        explicit T is kept, in the scheme and in the load."""
        cfg_path = write(tmp_path, "[experiment]\nname = ct\n[scheme]\n"
                         "rho = 0.05\n" + t_line)
        cfg = sweep_point(cfg_path, "rho", 0.1)
        assert cfg.scheme.rho == 0.1
        assert cfg.scheme.T == cfg.load.T == pytest.approx(T)
        assert cfg.load.ubar_rate * cfg.load.T == pytest.approx(0.3)

    def test_verify_verb(self, tmp_path):
        out = tmp_path / "zd"
        cfg_path = write(tmp_path, ZERODIM_CFG.format(out=out))
        main(["run", str(cfg_path)])
        assert main(["verify", str(out)]) == 0

    def test_config_error_exit_code(self, tmp_path):
        bad = write(tmp_path, "[experiment]\nname = nope\n")
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind):
        out = tmp_path / "zd"
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(ZERODIM_CFG.format(out=out).encode() + b"#\xff\n")
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb, where", [
        ("run", "--out"), ("run", "[output]"), ("sweep", "--out"),
        ("sweep", "[output]")])
    def test_output_directory_that_is_a_file_is_config_error(
            self, tmp_path, capsys, verb, where):
        afile = write(tmp_path, "not a directory\n", "afile")
        out = afile if where == "[output]" else tmp_path / "zd"
        cfg_path = write(tmp_path, ZERODIM_CFG.format(out=out))
        argv = [verb, str(cfg_path)]
        argv += ["--param", "rho=0.1"] if verb == "sweep" else []
        argv += ["--out", str(afile)] if where == "--out" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: cannot create output directory" in err
        assert afile.read_text() == "not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]

    def test_verify_of_a_file_names_the_missing_manifest(self, tmp_path,
                                                         capsys):
        path = write(tmp_path, "not a run directory\n", "notes.txt")
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL manifest.json is missing"]

    @pytest.mark.parametrize("experiment, extra, sweep", [
        ("zerodim", "[scheme]\nrho = -1\n", None),
        ("zerodim", "[scheme]\nnorm_v = h2\n", None),
        ("zerodim", "[scheme]\nalpha = 1\n", None),
        ("zerodim", "[scheme]\nmax_am_iters = 0\n", None),
        ("zerodim", "[zerodim]\na = -1\n", None),
        ("zerodim", "[zerodim]\nz0 = 1.5\n", None),
        ("zerodim", "", "rho=0"),
        ("zerodim", "", "rho=abc"),
        ("zerodim", "", "alpha=1"),
        ("zerodim", "[scheme]\nnorm_v = h1\n", "alpha=3"),
        ("zerodim", "[material]\nyoung_e = 50\n", None),
        ("zerodim", "[mesh]\ncoarse_h = 0.2\n", None),
        ("zerodim", "[load]\nu_max = 0.1\n", None),
        ("ct", "[zerodim]\na = 2\n", None),
        ("custom", "[zerodim]\na = 2\n", None),
        ("lshape", "[zerodim]\na = 2\n", None),
        ("zerodim", "[scheme]\nrho = nan\n", None),
        ("zerodim", "[scheme]\nt = inf\n", None),
        ("zerodim", "[scheme]\ntol_am = nan\n", None),
        ("zerodim", "[zerodim]\nkappa_e = nan\n", None),
        ("zerodim", "[zerodim]\nell_rate = -inf\n", None),
        ("zerodim", "", "rho=nan"),
        ("custom", "[mesh]\ncoarse_h = 0.15\nfine_h = 0.15\n", None),
        ("custom", "[mesh]\ncoarse_h = 0.15\nfine_h = 0.15\n", "rho=0.1"),
        ("ct", "[material]\neta = nan\n", None),
        ("ct", "[material]\nyoung_e = inf\n", None),
        ("ct", "[load]\nu_max = nan\n", None),
        ("zerodim", "[zerodim]\nkappa_e = 0\n", None),
        ("zerodim", "[zerodim]\nkappa_e = -0.5\n", None),
        ("custom", "[mesh]\ncoarse_h = 0.2\nfine_h = 0.2\nnotch = damage\n",
         None),
        ("custom", "[mesh]\ncoarse_h = 0.2\nfine_h = 0.1\nnotch = damage\n"
         "band_x0 = 0.6\nband_x1 = 1.0\nband_y0 = 0.25\nband_y1 = 0.75\n",
         None),
        ("custom", "[mesh]\ncoarse_h = 0.15\nfine_h = 0.1\n", None),
        ("zerodim", "[scheme]\nnorm_v = h1\nalpha = 3\n", None),
        ("ct", "[load]\nmode = traction\nu_max = 0.1\n", None),
        ("ct", "[load]\ntraction_rate = 2\n", None),
        ("ct", "[load]\ndirection = z\n", None),
        ("ct", "[load]\nmode = pressure\n", None),
        ("ct", "[load]\nmode = dirichlet_whatever\n", None),
        ("zerodim", "[zerodim]\nkappa_r = -0.5\n", None),
        ("ct", "[mesh]\nnotch = hole\n", None),
        ("zerodim", "", "rho"),
        ("zerodim", "", "theta=0.1"),
        ("ct", "[mesh]\nfine_h = nan\n", None),
        ("ct", "[mesh]\ncoarse_h = inf\n", None),
        ("lshape", "[mesh]\nleg_len = nan\n", None),
        ("ct", "[mesh]\nside_len = 1e-12\nnotch = none\n", None),
        ("lshape", "[mesh]\ncoarse_h = 50\nfine_h = 25\nband_x0 = nan\n"
         "band_x1 = nan\nband_y0 = 0\nband_y1 = 100\n", None),
        ("lshape", "[mesh]\ncoarse_h = 50\nfine_h = 25\nband_x0 = -100\n"
         "band_x1 = 300\nband_y0 = 0\nband_y1 = 100\n", None),
        ("ct", "[material]\nkappa_e = 2\n", None),
        ("ct", "[material]\npreset = AT\nkappa_r = 0.5\n", None),
        ("lshape", "[material]\nkappa_r = 0.5\n", None),
        ("ct", "[material]\npreset = ANALYSIS\ng_c = 2\n", None),
        ("ct", "[material]\npreset = ANALYSIS\ntheta = 0.1\n", None),
    ], ids=["rho=-1", "norm_v=h2", "alpha=1", "max_am_iters=0",
            "zerodim_a=-1", "zerodim_z0=1.5", "sweep_rho=0", "sweep_rho=abc",
            "sweep_alpha=1", "sweep_alpha_h1", "zerodim_material",
            "zerodim_mesh", "zerodim_load", "ct_zerodim", "custom_zerodim",
            "lshape_zerodim", "rho=nan", "T=inf", "tol_am=nan",
            "zerodim_kappa_e=nan", "zerodim_ell_rate=-inf", "sweep_rho=nan",
            "custom_no_grid", "sweep_custom_no_grid", "eta=nan",
            "young_e=inf", "u_max=nan", "zerodim_kappa_e=0",
            "zerodim_kappa_e=-0.5", "damage_notch_off_mid_height",
            "damage_notch_tip_off_grid", "coarse_h_off_fine_grid",
            "h1_alpha", "traction_u_max", "dirichlet_traction_rate",
            "load_direction_z", "load_mode_pressure",
            "load_mode_dirichlet_suffix", "zerodim_kappa_r=-0.5", "notch_hole",
            "sweep_without_values", "sweep_theta", "fine_h=nan",
            "coarse_h=inf", "leg_len=nan", "side_len=1e-12",
            "lshape_band_nan", "lshape_band_outside", "at_kappa_e",
            "at_kappa_r", "lshape_kappa_r", "analysis_g_c",
            "analysis_theta"])
    def test_invalid_input_is_config_error(self, tmp_path, capsys, experiment,
                                           extra, sweep):
        text = ZERODIM_CFG.replace("zerodim", experiment)
        out = tmp_path / "zd"
        cfg_path = write(tmp_path, text.format(out=out) + extra)
        argv = (["sweep", str(cfg_path), "--param", sweep] if sweep
                else ["run", str(cfg_path)])
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
