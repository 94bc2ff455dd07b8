"""Configuration, experiment presets, execution and artifact output.

Config files are flat INI-style key/value text (diff-friendly for
parameter sweeps).  Three presets fill in defaults: ``ct`` (square plate
with a mid-height slit), ``lshape`` and ``zerodim``; ``custom`` exposes the
square-plate geometry with every parameter explicit.  Unknown keys are
rejected.

Artifacts per run directory: ``trace.csv`` (written incrementally, so a
crash retains the partial trace), ``balance.csv``, VTK field snapshots and
``manifest.json`` with every resolved parameter.  Runs are deterministic:
identical config gives byte-identical trace.csv.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import check_trace_invariants, complementarity_check, energy_balance
from .driver import StepRecord, Trace, run
from .mesh import Mesh, build_ct_mesh, build_lshape_mesh
from .model import (
    DIRICHLET_RAMP,
    TRACTION_RAMP,
    LoadProgram,
    MaterialModel,
    ModelConfigError,
    NormSpec,
    SchemeParams,
)
from .solvers import SolverFailure
from .vtkio import write_vtk
from .zerodim import ZeroDimModel, run_zero_dim

TRACE_HEADER = ("k,t,dt,dz_norm_V,am_iters,energy,R_inc,reaction,dual_distance,"
                "ball_active,am_converged")
BALANCE_HEADER = "k,dE,R_inc,visc,work,residual,cum_residual"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_CT_DEFAULTS = {
    "material": dict(young_E=100.0, poisson_nu=0.3, eta=1e-4, g_c=1.0,
                     theta=0.025, kappa_E=1.0, kappa_R=1.0, preset="AT"),
    "mesh": dict(side_len=1.0, coarse_h=0.1, fine_h=0.01, notch="slit"),
    "scheme": dict(rho=0.005, alpha=4.0, norm_V="lalpha"),
    "load": dict(mode="dirichlet", u_max=0.3, direction="y"),
}

_LSHAPE_DEFAULTS = {
    "material": dict(young_E=25840.0, poisson_nu=0.18, eta=1e-4, g_c=6.5e-4,
                     theta=10.0, kappa_E=1.0, kappa_R=1.0, preset="AT"),
    "mesh": dict(leg_len=250.0, coarse_h=50.0, fine_h=2.0, notch="none"),
    "scheme": dict(rho=0.08658, alpha=4.0, norm_V="lalpha", T=8.658),
    "load": dict(mode="dirichlet", u_max=1.0, direction="y"),
}

_ZERODIM_DEFAULTS = {
    "zerodim": dict(a=1.0, eta=1e-3, kappa_E=0.85, kappa_R=1.0, ell_rate=1.0),
    "scheme": dict(rho=0.02, T=1.0, alpha=2.0, norm_V="lalpha"),
}

_SCHEME_KEYS = {
    "rho": float, "t": float, "alpha": float, "norm_v": str,
    "tol_am": float, "tol_newton": float, "tol_constraint": float,
    "max_am_iters": int,
}
_MATERIAL_KEYS = {
    "young_e": float, "poisson_nu": float, "eta": float, "g_c": float,
    "theta": float, "kappa_e": float, "kappa_r": float, "preset": str,
}
_MESH_KEYS = {
    "side_len": float, "leg_len": float, "coarse_h": float, "fine_h": float,
    "notch": str, "band_x0": float, "band_x1": float,
    "band_y0": float, "band_y1": float,
}
_LOAD_KEYS = {"mode": str, "u_max": float, "direction": str,
              "traction_rate": float}
_ZERODIM_KEYS = {"a": float, "eta": float, "kappa_e": float,
                 "kappa_r": float, "ell_rate": float, "z0": float}
_OUTPUT_KEYS = {"directory": str, "snapshot_stride": int,
                "store_all_snapshots": bool, "formats": str}
_SECTIONS = {
    "experiment": {"name": str},
    "scheme": _SCHEME_KEYS,
    "material": _MATERIAL_KEYS,
    "mesh": _MESH_KEYS,
    "load": _LOAD_KEYS,
    "zerodim": _ZERODIM_KEYS,
    "output": _OUTPUT_KEYS,
}

# SchemeParams fields that the manifest's scheme section holds as they are
_MANIFEST_SCHEME = ("rho", "T", "tol_am", "tol_newton", "tol_constraint",
                    "max_am_iters", "snapshot_stride", "store_all_snapshots")

_DIRECTIONS = {"x": (1.0, 0.0), "y": (0.0, 1.0),
               "-x": (-1.0, 0.0), "-y": (0.0, -1.0)}


@dataclasses.dataclass(eq=False)
class RunConfig:
    """Fully resolved run description (defaults already filled in)."""

    experiment: str
    scheme: SchemeParams
    material: MaterialModel | None = None
    load: LoadProgram | None = None
    mesh_args: dict | None = None
    notch: str = "slit"
    zerodim: ZeroDimModel | None = None
    zerodim_z0: float = 1.0
    output_dir: str = "out"
    formats: tuple = ("csv", "vtk")
    resolved: dict = dataclasses.field(default_factory=dict)


def _coerce(raw: str, typ, field: str):
    try:
        if typ is bool:
            val = raw.strip().lower()
            if val in ("1", "true", "yes", "on"):
                return True
            if val in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {field!r}: {raw!r}") from exc


def _read_sections(path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as f:
            parser.read_file(f)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", "?")
        raise ConfigError(f"{path}: parse error at line {lineno}: {exc}") from exc
    data = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _SECTIONS[section]
        vals = {}
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            vals[key] = _coerce(raw, allowed[key], f"{section}.{key}")
        data[section] = vals
    return data


def load_config(path) -> RunConfig:
    """Parse and validate a config file, filling preset defaults."""
    if not Path(path).exists():
        raise ConfigError(f"config file {path} does not exist")
    data = _read_sections(path)
    experiment = data.get("experiment", {}).get("name", "ct")
    if experiment not in ("ct", "lshape", "zerodim", "custom"):
        raise ConfigError(f"unknown experiment {experiment!r}")

    if experiment == "zerodim":
        defaults = _ZERODIM_DEFAULTS
    elif experiment == "lshape":
        defaults = _LSHAPE_DEFAULTS
    else:
        defaults = _CT_DEFAULTS

    def merged(section):
        out = dict(defaults.get(section, {}))
        user = data.get(section, {})
        # config keys are lower-case; canonical names differ in case only
        rename = {"young_e": "young_E", "kappa_e": "kappa_E",
                  "kappa_r": "kappa_R", "t": "T", "norm_v": "norm_V"}
        for key, val in user.items():
            out[rename.get(key, key)] = val
        return out

    sch = merged("scheme")
    rho = float(sch.get("rho", 0.005))
    T = sch.get("T")
    load_cfg = merged("load")
    if T is None:
        # default schedule: at least 100 discrete time steps
        T = 100.0 * rho if experiment in ("ct", "custom") else 1.0
    out_cfg = merged("output")
    # unset keys keep the SchemeParams defaults
    tuning = {k: v for k, v in {**sch, **out_cfg}.items()
              if k in ("tol_am", "tol_newton", "tol_constraint", "max_am_iters",
                       "snapshot_stride", "store_all_snapshots")}
    try:
        scheme = SchemeParams(
            rho=rho, T=float(T),
            norm_V=NormSpec(kind=sch.get("norm_V", "lalpha"),
                            alpha=float(sch.get("alpha", 4.0))),
            **tuning)
    except ModelConfigError as exc:
        raise ConfigError(f"invalid scheme: {exc}") from exc

    cfg = RunConfig(experiment=experiment, scheme=scheme)
    cfg.output_dir = str(out_cfg.get("directory", "out"))
    cfg.formats = tuple(s.strip() for s in
                        str(out_cfg.get("formats", "csv,vtk")).split(",") if s)

    if experiment == "zerodim":
        zd = merged("zerodim")
        cfg.zerodim_z0 = float(zd.pop("z0", 1.0))
        if not 0.0 <= cfg.zerodim_z0 <= 1.0:
            raise ConfigError(f"zerodim.z0 = {cfg.zerodim_z0} outside [0, 1]")
        try:
            cfg.zerodim = ZeroDimModel(**zd)
        except ModelConfigError as exc:
            raise ConfigError(f"invalid zerodim model: {exc}") from exc
        cfg.resolved = _resolve_dict(cfg)
        return cfg

    mat = merged("material")
    try:
        cfg.material = MaterialModel(**mat)
    except (TypeError, ModelConfigError) as exc:
        raise ConfigError(f"invalid material: {exc}") from exc

    mesh_cfg = merged("mesh")
    cfg.notch = str(mesh_cfg.pop("notch", "slit"))
    if cfg.notch not in ("slit", "damage", "none"):
        raise ConfigError(f"unknown notch style {cfg.notch!r}")
    band_keys = [f"band_{c}" for c in ("x0", "x1", "y0", "y1")]
    missing = [k for k in band_keys if k not in mesh_cfg]
    if 0 < len(missing) < len(band_keys):
        raise ConfigError(f"[mesh] refinement band lacks {', '.join(missing)}")
    x0, x1, y0, y1 = (mesh_cfg.pop(k, None) for k in band_keys)
    mesh_cfg["refine_band"] = None if missing else ((x0, x1), (y0, y1))
    cfg.mesh_args = mesh_cfg

    mode = str(load_cfg.get("mode", "dirichlet")).lower()
    direction = _DIRECTIONS.get(str(load_cfg.get("direction", "y")).lower())
    if direction is None:
        raise ConfigError(f"unknown load direction {load_cfg.get('direction')!r}")
    if mode.startswith("dirichlet"):
        u_max = float(load_cfg.get("u_max", 0.3))
        cfg.load = LoadProgram(mode=DIRICHLET_RAMP, T=scheme.T,
                               direction=direction,
                               ubar_rate=u_max / scheme.T)
    elif mode.startswith("traction"):
        cfg.load = LoadProgram(mode=TRACTION_RAMP, T=scheme.T,
                               direction=direction,
                               traction_rate=float(load_cfg.get("traction_rate", 1.0)))
    else:
        raise ConfigError(f"unknown load mode {mode!r}")
    cfg.resolved = _resolve_dict(cfg)
    return cfg


def _resolve_dict(cfg: RunConfig) -> dict:
    """Every parameter that affects results, for the manifest."""
    out = {
        "version": __version__,
        "experiment": cfg.experiment,
        "scheme": dict({k: getattr(cfg.scheme, k) for k in _MANIFEST_SCHEME},
                       norm_V=cfg.scheme.norm_V.kind,
                       alpha=cfg.scheme.norm_V.alpha),
        "output": {"directory": cfg.output_dir, "formats": list(cfg.formats)},
    }
    if cfg.zerodim is not None:
        out["zerodim"] = {k: getattr(cfg.zerodim, k)
                          for k in ("a", "eta", "kappa_E", "kappa_R", "ell_rate")}
        out["zerodim"]["z0"] = cfg.zerodim_z0
    if cfg.material is not None:
        out["material"] = {k: getattr(cfg.material, k)
                           for k in ("young_E", "poisson_nu", "eta", "g_c",
                                     "theta", "kappa_E", "kappa_R", "preset")}
        out["mesh"] = dict(cfg.mesh_args, notch=cfg.notch)
        out["load"] = {"mode": cfg.load.mode, "direction": list(cfg.load.direction),
                       "ubar_rate": cfg.load.ubar_rate,
                       "traction_rate": cfg.load.traction_rate}
    return out


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def trace_row(r) -> str:
    return ",".join([
        _fmt(r.k), _fmt(r.t), _fmt(r.dt), _fmt(r.dz_norm_V), _fmt(r.am_iters),
        _fmt(r.energy), _fmt(r.R_increment), _fmt(r.reaction),
        _fmt(r.dual_distance), _fmt(r.ball_active), _fmt(r.am_converged),
    ])


def write_balance_csv(path, report):
    with open(path, "w") as f:
        f.write(BALANCE_HEADER + "\n")
        for row in report.rows:
            f.write(",".join([
                _fmt(row.k), _fmt(row.dE), _fmt(row.R_inc), _fmt(row.visc),
                _fmt(row.work), _fmt(row.residual), _fmt(row.cum_residual),
            ]) + "\n")


def build_mesh(cfg: RunConfig) -> Mesh:
    args = dict(cfg.mesh_args)
    if cfg.experiment == "lshape":
        args.pop("side_len", None)
        return build_lshape_mesh(**args)
    args.pop("leg_len", None)
    return build_ct_mesh(**args, notch=(cfg.notch == "slit"))


def initial_damage(cfg: RunConfig, mesh: Mesh) -> np.ndarray:
    """Intact field, or a damaged band along the notch line when the
    config asks for the initial-damage notch variant."""
    z0 = np.ones(mesh.n_nodes)
    if cfg.notch == "damage" and cfg.experiment in ("ct", "custom"):
        L = cfg.mesh_args.get("side_len", 1.0)
        on_line = (np.abs(mesh.nodes[:, 1] - 0.5 * L) < 1e-12 * L) & \
                  (mesh.nodes[:, 0] <= 0.5 * L + 1e-12 * L)
        z0[on_line] = 0.0
    return z0


def execute(cfg: RunConfig) -> int:
    """Run one configured experiment; artifacts land in cfg.output_dir.

    Returns a process exit status; solver failures keep partial artifacts
    and return nonzero.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "manifest.json", "w") as f:
        json.dump(cfg.resolved, f, indent=2, sort_keys=True)

    trace_path = outdir / "trace.csv"
    trace_file = open(trace_path, "w")
    trace_file.write(TRACE_HEADER + "\n")

    def hook(record):
        trace_file.write(trace_row(record) + "\n")
        trace_file.flush()

    status = 0
    trace = None
    mesh = None
    try:
        if cfg.experiment == "zerodim":
            trace = run_zero_dim(cfg.zerodim, cfg.scheme, z0=cfg.zerodim_z0,
                                 check_oracle=True, record_hook=hook)
        else:
            mesh = build_mesh(cfg)
            z0 = initial_damage(cfg, mesh)
            trace = run(mesh, cfg.material, cfg.load, cfg.scheme, z0,
                        record_hook=hook)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        trace = getattr(exc, "partial_trace", None)
        status = 1
    finally:
        trace_file.close()

    if trace is not None and trace.records:
        load = cfg.load
        if cfg.experiment == "zerodim":
            load = LoadProgram(mode=TRACTION_RAMP, T=cfg.scheme.T,
                               direction=(1.0, 0.0),
                               traction_rate=cfg.zerodim.ell_rate)
        report = energy_balance(trace, load)
        write_balance_csv(outdir / "balance.csv", report)
        if mesh is not None and "vtk" in cfg.formats:
            for k in sorted(trace.snapshots):
                u, z = trace.snapshots[k]
                write_vtk(outdir / f"fields_{k:06d}.vtk", mesh,
                          point_scalars={"damage": z},
                          point_vectors={"displacement": u})
    return status


# ---------------------------------------------------------------------------
# Verification of stored artifacts
# ---------------------------------------------------------------------------

def read_trace(rows: list, params: SchemeParams) -> Trace:
    """A ``Trace`` without fields from the data rows of ``trace.csv`` and
    the scheme of ``manifest.json``.  ``xi_norm`` is not stored and reads
    NaN.  Raises ``ValueError`` on a malformed row."""
    records = []
    for line in rows:
        (k, t, dt, dz, iters, energy, R_inc, reaction, dual, ball,
         converged) = line.split(",")
        records.append(StepRecord(
            k=int(k), t=float(t), dt=float(dt), dz_norm_V=float(dz),
            am_iters=int(iters), energy=float(energy),
            R_increment=float(R_inc), reaction=float(reaction),
            dual_distance=float(dual), xi_norm=math.nan,
            ball_active=ball == "1", am_converged=converged == "1"))
    return Trace(records=records, scheme=params)


def _malformed(name: str) -> int:
    print(f"FAIL {name} is malformed")
    return 1


def verify_dir(trace_dir) -> int:
    """Re-run the trace-level diagnostics on stored artifacts.

    The checks that need the damage fields are reported as not checked:
    ``trace.csv`` holds none.  A missing or malformed artifact gives one
    FAIL line that names it.
    """
    trace_dir = Path(trace_dir)
    try:
        manifest = (trace_dir / "manifest.json").read_text()
        rows = (trace_dir / "trace.csv").read_text().strip().splitlines()
    except FileNotFoundError as exc:
        print(f"FAIL {Path(exc.filename).name} is missing")
        return 1
    try:
        scheme = json.loads(manifest)["scheme"]
        params = SchemeParams(
            norm_V=NormSpec(kind=scheme["norm_V"], alpha=scheme["alpha"]),
            **{k: scheme[k] for k in _MANIFEST_SCHEME})
    except (ValueError, KeyError, TypeError):
        return _malformed("manifest.json")
    if rows[:1] != [TRACE_HEADER]:
        print("FAIL trace.csv header mismatch")
        return 1
    if len(rows) < 2:
        print("FAIL trace.csv holds no steps")
        return 1
    try:
        trace = read_trace(rows[1:], params)
    except ValueError:
        return _malformed("trace.csv")
    checks = [("monotone time", bool(np.all(np.diff(trace.times()) >= 0)))]
    checks += check_trace_invariants(trace).verdicts().items()
    checks.append(("complementarity", not complementarity_check(trace)))
    bal_path = trace_dir / "balance.csv"
    if bal_path.exists():
        rows = bal_path.read_text().strip().splitlines()
        try:
            bal = np.array([[float(v) for v in line.split(",")]
                            for line in rows[1:]])
        except ValueError:
            return _malformed("balance.csv")
        if bal.ndim != 2 or bal.shape[1] != BALANCE_HEADER.count(",") + 1:
            return _malformed("balance.csv")
        ident = bal[:, 1] + bal[:, 2] + bal[:, 3] - bal[:, 4] - bal[:, 5]
        checks.append(("balance rows close",
                       bool(np.all(np.abs(ident) <= 1e-10 * (1 + np.abs(bal[:, 1]).max())))))
        checks.append(("balance cumulative consistent",
                       bool(np.allclose(np.cumsum(bal[:, 5]), bal[:, 6],
                                        atol=1e-12 * max(1, abs(bal[-1, 6]))))))
    status = 0
    for name, ok in checks:
        if ok is None:
            print(f"not checked: {name} (trace.csv holds no fields)",
                  file=sys.stderr)
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        status |= 0 if ok else 1
    return status


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def sweep_point(config_path, name: str, val: float) -> RunConfig:
    """The config at ``config_path`` with ``rho`` or ``alpha`` set to
    ``val``; the scheme is rebuilt, so its checks apply to ``val``."""
    cfg = load_config(config_path)
    scheme = cfg.scheme
    if name == "rho":
        T = scheme.T
        if (abs(scheme.T - 100.0 * scheme.rho) < 1e-12
                and cfg.experiment in ("ct", "custom")):
            # default schedule couples T = 100 rho; keep u_max fixed
            T = 100.0 * val
            if cfg.load.mode == DIRICHLET_RAMP:
                u_max = cfg.load.ubar_rate * scheme.T
                cfg.load = dataclasses.replace(cfg.load, T=T,
                                               ubar_rate=u_max / T)
        cfg.scheme = dataclasses.replace(scheme, rho=val, T=T)
    else:
        cfg.scheme = dataclasses.replace(
            scheme, norm_V=NormSpec(kind="lalpha", alpha=val))
    cfg.resolved = _resolve_dict(cfg)
    return cfg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="amfrac",
                                 description="adaptive phase-field fracture runs")
    sub = ap.add_subparsers(dest="verb", required=True)

    ap_run = sub.add_parser("run", help="execute one configured experiment")
    ap_run.add_argument("config")
    ap_run.add_argument("--out", help="override output directory")

    ap_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    ap_sweep.add_argument("config")
    ap_sweep.add_argument("--param", required=True,
                          help="e.g. rho=0.1,0.05,0.025")
    ap_sweep.add_argument("--out", help="override output directory")

    ap_verify = sub.add_parser("verify",
                               help="re-run diagnostics on stored artifacts")
    ap_verify.add_argument("trace_dir")

    args = ap.parse_args(argv)
    if args.verb == "verify":
        return verify_dir(args.trace_dir)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        cfg.output_dir = args.out
        cfg.resolved["output"]["directory"] = args.out

    if args.verb == "run":
        return execute(cfg)

    name, _, values = args.param.partition("=")
    if not values:
        print("sweep --param expects name=v1,v2,...", file=sys.stderr)
        return 2
    if name not in ("rho", "alpha"):
        print(f"unsupported sweep parameter {name!r}", file=sys.stderr)
        return 2
    try:
        points = [(raw, sweep_point(args.config, name, float(raw)))
                  for raw in values.split(",")]
    except ValueError as exc:  # ConfigError, ModelConfigError, float()
        print(f"config error: --param {name}: {exc}", file=sys.stderr)
        return 2
    status = 0
    base = Path(cfg.output_dir)
    for raw, sub_cfg in points:
        sub_cfg.output_dir = str(base / f"{name}_{raw}")
        sub_cfg.resolved["output"]["directory"] = sub_cfg.output_dir
        status |= execute(sub_cfg)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
