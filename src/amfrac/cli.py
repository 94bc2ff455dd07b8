"""Configuration, experiment presets, execution and artifact output.

Config files are flat INI-style key/value text (diff-friendly for
parameter sweeps).  The keys of ``[material]`` and ``[zerodim]`` are the
lower-cased init fields of ``MaterialModel`` and ``ZeroDimModel`` (and
``z0``); ``[scheme]`` and ``[output]`` hold those of ``SchemeParams``,
with the ball's ``NormSpec`` as ``norm_v`` and ``alpha``.
Unset keys keep the dataclass defaults, and three presets set the values
that differ from them: ``ct`` (square plate with a mid-height slit),
``lshape`` and ``zerodim``; ``custom`` is the ``ct`` preset under another
name.  Unknown keys, keys set in the file that the chosen geometry, ball,
load mode or energy preset does not read, and output formats other than
csv and vtk are rejected.  ``load_config`` also builds the mesh and the
initial damage, so a mesh with no grid is a ``ConfigError`` too, raised
before any file is written.

Artifacts per run directory: ``trace.csv`` (one column per ``StepRecord``
field, written incrementally, so a crash retains the partial trace),
``balance.csv`` (one column per ``BalanceRow`` field), VTK field
snapshots and ``manifest.json`` with the init fields of the run's
dataclasses.  ``trace.csv``, ``balance.csv`` and ``manifest.json`` are
always written, because ``verify`` reads them: ``[output] formats`` only
adds the VTK snapshots of a field run (``vtk``), so ``formats = csv`` and
an empty ``formats`` write the same files.  Runs are deterministic:
identical config gives byte-identical trace.csv.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    BalanceRow,
    check_trace_invariants,
    complementarity_check,
    energy_balance,
)
from .driver import StepRecord, Trace, run
from .mesh import (
    Mesh,
    MeshConfigError,
    build_ct_mesh,
    build_lshape_mesh,
    check_slit_on_grid,
)
from .model import (
    DIRICHLET_RAMP,
    PRESET_AT,
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


class ConfigError(ValueError):
    pass


def _init_fields(cls, skip=()) -> dict:
    """Name -> type of the init fields of dataclass ``cls``, in order."""
    types = typing.get_type_hints(cls)
    return {f.name: types[f.name] for f in dataclasses.fields(cls)
            if f.init and f.name not in skip}


def _init_values(obj, skip=()) -> dict:
    return {name: getattr(obj, name) for name in _init_fields(type(obj), skip)}


TRACE_HEADER = ",".join(_init_fields(StepRecord))
BALANCE_HEADER = ",".join(_init_fields(BalanceRow))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_CT = {
    "material": dict(young_E=100.0, poisson_nu=0.3),
    "mesh": dict(side_len=1.0, coarse_h=0.1, fine_h=0.01, notch="slit"),
    "scheme": dict(rho=0.005),  # T = 100 rho unless set
    "load": dict(mode="dirichlet", u_max=0.3, direction="y"),
}
_PRESETS = {
    "ct": _CT,
    "custom": _CT,
    "lshape": {
        "material": dict(young_E=25840.0, poisson_nu=0.18, g_c=6.5e-4,
                         theta=10.0),
        "mesh": dict(leg_len=250.0, coarse_h=50.0, fine_h=2.0, notch="none"),
        "scheme": dict(rho=0.08658, T=8.658),
        "load": dict(mode="dirichlet", u_max=1.0, direction="y"),
    },
    "zerodim": {"scheme": dict(rho=0.02, T=1.0, alpha=2.0)},
}

_OUTPUT_KEYS = {"directory": str, "formats": str, "snapshot_stride": int,
                "store_all_snapshots": bool}
# SchemeParams fields without a [scheme] key of their own: the ball is keyed
# norm_v and alpha
_SCHEME_UNKEYED = ("norm_V",)
_SECTIONS = {
    "experiment": {"name": str},
    "scheme": {**_init_fields(SchemeParams, (*_SCHEME_UNKEYED, *_OUTPUT_KEYS)),
               "norm_V": str, "alpha": float},
    "material": _init_fields(MaterialModel),
    "mesh": {"side_len": float, "leg_len": float, "coarse_h": float,
             "fine_h": float, "notch": str, "band_x0": float,
             "band_x1": float, "band_y0": float, "band_y1": float},
    "load": {"mode": str, "u_max": float, "direction": str,
             "traction_rate": float},
    "zerodim": {**_init_fields(ZeroDimModel), "z0": float},
    "output": _OUTPUT_KEYS,
}

_DIRECTIONS = {"x": (1.0, 0.0), "y": (0.0, 1.0),
               "-x": (-1.0, 0.0), "-y": (0.0, -1.0)}


@dataclasses.dataclass(eq=False)
class RunConfig:
    """Fully resolved run description (defaults already filled in): the
    models, the mesh and the initial damage ``z0``, a nodal field or the
    scalar model's value.  ``mesh_args`` holds the ``[mesh]`` keys as the
    manifest records them."""

    experiment: str
    scheme: SchemeParams
    output_dir: str
    formats: tuple
    z0: np.ndarray | float = 1.0
    material: MaterialModel | None = None
    load: LoadProgram | None = None
    mesh: Mesh | None = None
    mesh_args: dict | None = None
    zerodim: ZeroDimModel | None = None


def _coerce(raw: str, typ, field: str):
    try:
        if typ is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return typ(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid value for {field!r}: {raw!r}") from exc


def _read_sections(path) -> dict:
    """Section -> {name: value}: a key is a name in ``_SECTIONS``, lower
    cased, and its value is coerced to that name's type."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", "?")
        raise ConfigError(f"{path}: parse error at line {lineno}: {exc}") from exc
    data = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _SECTIONS[section]
        names = {name.lower(): name for name in allowed}
        vals = {}
        for key, raw in parser.items(section):
            if key not in names:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            vals[names[key]] = _coerce(raw, allowed[names[key]],
                                       f"{section}.{key}")
        data[section] = vals
    return data


def load_config(path) -> RunConfig:
    """Parse and validate a config file, filling preset defaults."""
    return _resolve(_read_sections(path))


def _resolve(data: dict) -> RunConfig:
    """The run that the sections ``data`` of a config file describe, with
    its mesh and initial damage built: an invalid scheme, model, load or
    mesh is a ``ConfigError``."""
    try:
        return _build_run(data)
    except (ModelConfigError, MeshConfigError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_run(data: dict) -> RunConfig:
    experiment = data.get("experiment", {}).get("name", "ct")
    if experiment not in _PRESETS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    others = (("material", "mesh", "load") if experiment == "zerodim"
              else ("zerodim",))
    unread = [f"[{section}]" for section in others if section in data]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read by the "
                          f"{experiment} experiment")

    def merged(section):
        return {**_PRESETS[experiment].get(section, {}), **data.get(section, {})}

    sch = merged("scheme")
    sch.setdefault("T", 100.0 * sch["rho"])  # default: 100 steps of rho
    out_cfg = merged("output")
    output_dir = str(out_cfg.pop("directory", "out"))
    formats = out_cfg.pop("formats", "csv,vtk").split(",")
    formats = tuple(filter(None, map(str.strip, formats)))
    unknown = [f for f in formats if f not in ("csv", "vtk")]
    if unknown:
        raise ConfigError(f"[output] formats: unknown {', '.join(unknown)}")
    kind = sch.pop("norm_V", NormSpec.kind)
    if kind == "h1" and "alpha" in data.get("scheme", {}):
        raise ConfigError(f"[scheme] alpha: not read by the {kind} ball")
    # the rest of [output] are SchemeParams fields
    scheme = SchemeParams(norm_V=NormSpec(kind, sch.pop("alpha", NormSpec.alpha)),
                          **sch, **out_cfg)
    cfg = RunConfig(experiment=experiment, scheme=scheme,
                    output_dir=output_dir, formats=formats)

    if experiment == "zerodim":
        zd = merged("zerodim")
        cfg.z0 = zd.pop("z0", cfg.z0)
        if not 0.0 <= cfg.z0 <= 1.0:
            raise ConfigError(f"zerodim.z0 = {cfg.z0} outside [0, 1]")
        cfg.zerodim = ZeroDimModel(**zd)
        return cfg

    cfg.material = MaterialModel(**merged("material"))
    # the AT energy has no kappa_E term and no dissipation constant
    unread = (("kappa_E", "kappa_R") if cfg.material.preset == PRESET_AT
              else ("g_c", "theta"))
    unread = [k.lower() for k in unread if k in data.get("material", {})]
    if unread:
        raise ConfigError(f"[material] {', '.join(unread)}: not read by the "
                          f"{cfg.material.preset} preset")
    load_cfg = merged("load")
    mode = load_cfg["mode"].lower()
    direction = _DIRECTIONS.get(load_cfg["direction"].lower())
    if direction is None:
        raise ConfigError(f"unknown load direction {load_cfg['direction']!r}")
    if mode == "dirichlet":
        ramp = dict(mode=DIRICHLET_RAMP, ubar_rate=load_cfg["u_max"] / scheme.T)
    elif mode == "traction":
        ramp = dict(mode=TRACTION_RAMP,
                    traction_rate=load_cfg.get("traction_rate", 1.0))
    else:
        raise ConfigError(f"unknown load mode {mode!r}")
    unread = "u_max" if ramp["mode"] == TRACTION_RAMP else "traction_rate"
    if unread in data.get("load", {}):
        raise ConfigError(f"[load] {unread}: not read by the {mode} load")
    cfg.load = LoadProgram(T=scheme.T, direction=direction, **ramp)

    mesh_cfg = merged("mesh")
    notch = mesh_cfg.pop("notch")
    if notch not in ("slit", "damage", "none"):
        raise ConfigError(f"unknown notch style {notch!r}")
    lshape = experiment == "lshape"
    unread = [k for k in ("side_len" if lshape else "leg_len",) if k in mesh_cfg]
    if lshape and notch != "none":
        unread.append(f"notch = {notch}")
    if unread:
        raise ConfigError(f"[mesh] {', '.join(unread)}: not read by the "
                          f"{experiment} geometry")
    band_keys = [f"band_{c}" for c in ("x0", "x1", "y0", "y1")]
    missing = [k for k in band_keys if k not in mesh_cfg]
    if 0 < len(missing) < len(band_keys):
        raise ConfigError(f"[mesh] refinement band lacks {', '.join(missing)}")
    x0, x1, y0, y1 = (mesh_cfg.pop(k, None) for k in band_keys)
    mesh_cfg["refine_band"] = None if missing else ((x0, x1), (y0, y1))
    cfg.mesh_args = dict(mesh_cfg, notch=notch)
    cfg.mesh = (build_lshape_mesh(**mesh_cfg) if lshape
                else build_ct_mesh(**mesh_cfg, notch=notch == "slit"))
    cfg.z0 = np.ones(cfg.mesh.n_nodes)
    if notch == "damage":  # the slit row left of the tip starts broken
        L = mesh_cfg["side_len"]
        x, y = cfg.mesh.nodes.T
        check_slit_on_grid(x, y, L)
        cfg.z0[(np.abs(y - 0.5 * L) < 1e-12 * L) & (x <= 0.5 * L + 1e-12 * L)] = 0.0
    return cfg


def _manifest(cfg: RunConfig) -> dict:
    """Every parameter that affects results: the init fields of the run's
    dataclasses, with the scheme's ball as ``norm_V`` and, for an L^alpha
    ball, ``alpha``."""
    norm = cfg.scheme.norm_V
    scheme = dict(_init_values(cfg.scheme, _SCHEME_UNKEYED), norm_V=norm.kind)
    if norm.kind == "lalpha":
        scheme["alpha"] = norm.alpha
    out = {
        "version": __version__,
        "experiment": cfg.experiment,
        "scheme": scheme,
        "output": {"directory": cfg.output_dir, "formats": list(cfg.formats)},
    }
    if cfg.zerodim is not None:
        out["zerodim"] = dict(_init_values(cfg.zerodim), z0=cfg.z0)
    if cfg.material is not None:
        out["material"] = _init_values(cfg.material)
        out["mesh"] = cfg.mesh_args
        out["load"] = _init_values(cfg.load, ("T",))  # T is in the scheme
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


def _csv_row(record) -> str:
    """One ``trace.csv`` or ``balance.csv`` row: the fields of a
    ``StepRecord`` or ``BalanceRow`` in order."""
    return ",".join(map(_fmt, dataclasses.astuple(record)))


def _from_rows(cls, rows: list) -> list:
    """Inverse of ``_csv_row``: one ``cls`` per row.  Raises
    ``ValueError`` on a malformed row."""
    types = _init_fields(cls).items()
    return [cls(**{name: _coerce(cell, typ, name) for (name, typ), cell
                   in zip(types, line.split(","), strict=True)})
            for line in rows]


def execute(cfg: RunConfig) -> int:
    """Run one configured experiment; artifacts land in cfg.output_dir.

    Returns a process exit status; solver failures keep partial artifacts
    and return nonzero.  An output directory that cannot be created (a
    file in its place) is a ``ConfigError``, raised before anything is
    written.  The VTK snapshots of an earlier run into the same directory
    are removed first, so the directory holds this run's only.
    """
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: "
                          f"{exc.strerror}") from None
    for stale in outdir.glob("fields_*.vtk"):
        stale.unlink()
    with open(outdir / "manifest.json", "w") as f:
        json.dump(_manifest(cfg), f, indent=2, sort_keys=True)

    trace_path = outdir / "trace.csv"
    trace_file = open(trace_path, "w")
    trace_file.write(TRACE_HEADER + "\n")

    def hook(record):
        trace_file.write(_csv_row(record) + "\n")
        trace_file.flush()

    status = 0
    trace = None
    try:
        if cfg.mesh is None:
            trace = run_zero_dim(cfg.zerodim, cfg.scheme, z0=cfg.z0,
                                 check_oracle=True, record_hook=hook)
        else:
            trace = run(cfg.mesh, cfg.material, cfg.load, cfg.scheme, cfg.z0,
                        record_hook=hook)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        trace = getattr(exc, "partial_trace", None)
        status = 1
    finally:
        trace_file.close()

    if trace is not None and trace.records:
        report = energy_balance(trace, cfg.load)
        with open(outdir / "balance.csv", "w") as f:
            f.write(BALANCE_HEADER + "\n")
            f.writelines(_csv_row(row) + "\n" for row in report.rows)
        if cfg.mesh is not None and "vtk" in cfg.formats:
            for k in sorted(trace.snapshots):
                u, z = trace.snapshots[k]
                write_vtk(outdir / f"fields_{k:06d}.vtk", cfg.mesh,
                          point_scalars={"damage": z},
                          point_vectors={"displacement": u})
    return status


# ---------------------------------------------------------------------------
# Verification of stored artifacts
# ---------------------------------------------------------------------------

def read_trace(rows: list, params: SchemeParams, load_mode: str) -> Trace:
    """A ``Trace`` without fields from the data rows of ``trace.csv``, the
    scheme of ``manifest.json`` and the run's load mode (``TRACTION_RAMP``
    for the scalar model), which selects the work term of
    ``energy_balance``.  ``trace.csv`` does not hold the initial energy,
    so ``energy_init`` is left at 0.  Raises ``ValueError`` on a malformed
    row."""
    return Trace(records=_from_rows(StepRecord, rows), scheme=params,
                 load_mode=load_mode)


class _ArtifactError(Exception):
    """A missing or malformed artifact: the one FAIL line of ``verify``."""


def _read(trace_dir: Path, name: str) -> str:
    """The text of artifact ``name``; ``_ArtifactError`` if it cannot be
    read as UTF-8 text."""
    try:
        return (trace_dir / name).read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise _ArtifactError(f"{name} is missing") from None
    except (OSError, UnicodeDecodeError):
        raise _ArtifactError(f"{name} is malformed") from None


def _artifact_checks(trace_dir: Path) -> list:
    """(name, verdict) pairs of the checks that ``verify_dir`` reports: the
    trace invariants, complementarity, and whether ``balance.csv`` is the
    ledger that ``energy_balance`` derives from ``trace.csv`` under the
    manifest's load.  The one value that ``trace.csv`` lacks, the initial
    energy, is taken from ``balance.csv``'s first row as ``E_0 - dE_0``;
    every other cell must match within 1e-12 of the largest magnitude in
    its column."""
    try:
        manifest = json.loads(_read(trace_dir, "manifest.json"))
        scheme = dict(manifest["scheme"])
        kind = scheme.pop("norm_V")
        norm = (NormSpec(kind, scheme.pop("alpha")) if kind == "lalpha"
                else NormSpec(kind))
        scheme.pop("alpha", None)  # older manifests record one for H1 too
        params = SchemeParams(norm_V=norm, **scheme)
        load = (None if "zerodim" in manifest
                else LoadProgram(T=params.T, **manifest["load"]))
    except (ValueError, KeyError, TypeError):
        raise _ArtifactError("manifest.json is malformed") from None
    rows = _read(trace_dir, "trace.csv").strip().splitlines()
    if rows[:1] != [TRACE_HEADER]:
        raise _ArtifactError("trace.csv header mismatch")
    if len(rows) < 2:
        raise _ArtifactError("trace.csv holds no steps")
    try:
        trace = read_trace(rows[1:], params,
                           TRACTION_RAMP if load is None else load.mode)
    except ValueError:
        raise _ArtifactError("trace.csv is malformed") from None
    # a dropped or repeated jump row passes every per-step check
    steps = [r.k for r in trace.records]
    if steps != list(range(len(steps))):
        raise _ArtifactError("trace.csv is malformed")
    checks = list(check_trace_invariants(trace).verdicts().items())
    checks.append(("complementarity", not complementarity_check(trace)))
    bal_rows = _read(trace_dir, "balance.csv").strip().splitlines()
    if bal_rows[:1] != [BALANCE_HEADER]:
        raise _ArtifactError("balance.csv header mismatch")
    try:
        bal = _from_rows(BalanceRow, bal_rows[1:])
    except ValueError:
        raise _ArtifactError("balance.csv is malformed") from None
    if [r.k for r in bal] != steps:
        raise _ArtifactError("balance.csv is malformed")
    trace.energy_init = trace.records[0].energy - bal[0].dE
    stored, derived = (np.array([dataclasses.astuple(r) for r in ledger])
                       for ledger in (bal, energy_balance(trace, load).rows))
    close = np.abs(derived - stored) <= 1e-12 * np.abs(stored).max(axis=0)
    checks.append(("balance.csv is the ledger of trace.csv", bool(close.all())))
    return checks


def verify_dir(trace_dir) -> int:
    """Re-run the trace-level diagnostics on stored artifacts.

    The checks that need the damage fields are reported as not checked:
    ``trace.csv`` holds none.  ``balance.csv`` is checked against the
    ledger that ``energy_balance`` derives from ``trace.csv``.  A missing
    or malformed artifact gives one FAIL line that names it: one that is
    not UTF-8 text, a ``trace.csv`` whose steps are not 0, 1, ..., N, or a
    ``balance.csv`` whose steps differ from those of ``trace.csv`` is
    malformed.  ``balance.csv`` is read after the checks of ``trace.csv``,
    so a trace without steps is named as such.
    """
    try:
        checks = _artifact_checks(Path(trace_dir))
    except _ArtifactError as exc:
        print(f"FAIL {exc}")
        return 1
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
    """The config at ``config_path`` with ``[scheme] name = val``, for
    ``rho`` or ``alpha``, resolved as a file that sets it would be: a ``T``
    left unset stays ``100 rho`` (with ``u_max`` kept), an explicit one is
    kept, and the scheme's checks apply to ``val``.  An ``alpha`` sweep
    needs an L^alpha ball."""
    data = _read_sections(config_path)
    data.setdefault("scheme", {})[name] = val
    return _resolve(data)


def _execute_verb(args) -> int:
    """Exit status of ``run`` or ``sweep``; ``ConfigError`` on an invalid
    config, ``--param`` or output directory."""
    cfg = load_config(args.config)
    if args.out:
        cfg.output_dir = args.out

    if args.verb == "run":
        return execute(cfg)

    name, _, values = args.param.partition("=")
    if not values:
        raise ConfigError("--param expects name=v1,v2,...")
    if name not in ("rho", "alpha"):
        raise ConfigError(f"unsupported sweep parameter {name!r}")
    try:
        points = [(raw, sweep_point(args.config, name, float(raw)))
                  for raw in values.split(",")]
    except ValueError as exc:  # ConfigError, float()
        raise ConfigError(f"--param {name}: {exc}") from exc
    status = 0
    base = Path(cfg.output_dir)
    for raw, sub_cfg in points:
        sub_cfg.output_dir = str(base / f"{name}_{raw}")
        status |= execute(sub_cfg)
    return status


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
        return _execute_verb(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
