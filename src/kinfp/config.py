"""Flat dotted-key run configuration: parsing, validation, serialisation.

The on-disk format is one ``section.key = value`` assignment per line, with
``#`` comments and blank lines ignored.  Parsing is strict: unknown keys are
rejected and every violation is reported (not just the first).  Writing a
parsed config and re-parsing it round-trips exactly.

Each key's rules sit on its own ``SCHEMA`` row.  ``model.alpha`` and
``model.kind`` are required.  A key that one variant of a choice reads
(``model.beta``, ``model.gamma``, ``lyapunov.theta``, ``lyapunov.delta``,
``lyapunov.k``, ``diagnostics.rate_theta``, ``initial.file`` and
``diagnostics.reference_file``) is required under that variant if its
default is empty, and refused under the others unless it keeps its
default.  A parsed config is a ``RunConfig``: a dict of every key in
``SCHEMA`` order.

Every key is validated at parse time, for every command, by the object
that uses it: ``ModelParams``, ``PhaseGrid``, ``SolverConfig``,
``LyapunovSpec`` (with its weight mode) and ``ScanConfig``, built through
the typed views of ``RunConfig``, or by the check that the function
reading it runs: ``reference_profile``'s on ``diagnostics.delta``,
``rate_fit``'s on ``diagnostics.rate_theta`` (under ``rate_mode = exp``)
and on ``diagnostics.rate_burn_fraction``.
So ``model.gamma`` needs only gamma > 0, the range where the equilibrium
has finite mass and the solver is defined; the drift certifier itself
refuses a poly model unless 3/2 < ell < 1 + gamma/2, which excludes
gamma <= 1.
"""

from __future__ import annotations

from .diagnostics import check_burn_fraction, check_delta, check_rate_theta
from .grid import PhaseGrid
from .model import ExpWeight, LyapunovSpec, ModelParams, PolyWeight
from .solver import SolverConfig
from .verify import ScanConfig

__all__ = ["RunConfig", "ConfigError", "SCHEMA", "parse_config", "serialize_config"]

_REQUIRED = object()


class ConfigError(ValueError):
    """Carries the full list of configuration violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _dt(text: str) -> str:
    # "auto", or the float literal in its repr form
    return "auto" if text == "auto" else repr(float(text))


# key -> (parser of the value text, default or _REQUIRED, allowed values or
# None, (choice key, value) or None).  The last column names the one variant
# that reads the key: the key is required under it and must keep its
# default under any other.  model.kind has no allowed values here because
# ModelParams checks it.
SCHEMA: dict[str, tuple] = {
    "model.alpha": (float, _REQUIRED, None, None),
    "model.kind": (str, _REQUIRED, None, None),
    "model.beta": (float, None, None, ("model.kind", "exp")),
    "model.gamma": (float, None, None, ("model.kind", "poly")),
    "grid.L": (float, 50.0, None, None),
    "grid.v_max": (float, 50.0, None, None),
    "grid.Nx": (int, 128, None, None),
    "grid.Nv": (int, 128, None, None),
    "time.t_final": (float, 10.0, None, None),
    "time.dt": (_dt, "auto", None, None),  # "auto" or a float literal
    "time.cfl_safety": (float, 0.45, None, None),
    "initial.preset": (str, "paper-default", ("paper-default", "file"), None),
    "initial.file": (str, "", None, ("initial.preset", "file")),  # checkpoint path
    "diagnostics.cadence": (int, 100, None, None),
    "diagnostics.snapshot_cadence": (int, 1000, None, None),
    "diagnostics.reference": (str, "none", ("none", "profile", "file"), None),
    "diagnostics.reference_file": (str, "", None, ("diagnostics.reference", "file")),
    "diagnostics.delta": (float, 1.15, None, None),
    "diagnostics.rate_mode": (str, "exp", ("exp", "poly"), None),
    "diagnostics.rate_theta": (float, 0.25, None, ("diagnostics.rate_mode", "exp")),
    "diagnostics.rate_burn_fraction": (float, 0.1, None, None),
    "lyapunov.ell": (float, 2.0, None, None),
    "lyapunov.eps": (float, 0.2, None, None),
    "lyapunov.a_exp": (float, 1.0, None, None),
    "lyapunov.b_exp": (float, 0.6, None, None),
    "lyapunov.mode": (str, "exp", ("exp", "poly"), None),
    "lyapunov.theta": (float, 0.25, None, ("lyapunov.mode", "exp")),
    "lyapunov.delta": (float, 2.0, None, ("lyapunov.mode", "exp")),
    "lyapunov.k": (float, 1.5, None, ("lyapunov.mode", "poly")),
    "lyapunov.scan_x": (float, 50.0, None, None),
    "lyapunov.scan_v": (float, 50.0, None, None),
    "lyapunov.samples": (int, 256, None, None),
    "lyapunov.radii": (_float_list, (20.0, 25.0, 30.0, 35.0, 40.0, 45.0), None, None),
    "output.dir": (str, "out", None, None),
    "output.snapshot_format": (str, "csv", ("csv", "checkpoint"), None),
}


class RunConfig(dict):
    """A fully validated configuration: every SCHEMA key, in SCHEMA order,
    mapped to its value, with the typed views of the objects that read them."""

    def model_params(self) -> ModelParams:
        kind = self["model.kind"]
        return ModelParams(
            alpha=self["model.alpha"],
            kind=kind,
            beta=self["model.beta"] if kind == "exp" else None,
            gamma=self["model.gamma"] if kind == "poly" else None,
        )

    def phase_grid(self) -> PhaseGrid:
        return PhaseGrid(
            L=self["grid.L"],
            v_max=self["grid.v_max"],
            Nx=self["grid.Nx"],
            Nv=self["grid.Nv"],
        )

    def solver_config(self) -> SolverConfig:
        dt = self["time.dt"]
        return SolverConfig(
            model=self.model_params(),
            grid=self.phase_grid(),
            t_final=self["time.t_final"],
            dt="auto" if dt == "auto" else float(dt),
            cfl_safety=self["time.cfl_safety"],
            snapshot_cadence=self["diagnostics.snapshot_cadence"],
            diagnostics_cadence=self["diagnostics.cadence"],
        )

    def lyapunov_spec(self) -> LyapunovSpec:
        if self["lyapunov.mode"] == "exp":
            mode = ExpWeight(theta=self["lyapunov.theta"], delta=self["lyapunov.delta"])
        else:
            mode = PolyWeight(k=self["lyapunov.k"])
        return LyapunovSpec(
            ell=self["lyapunov.ell"],
            eps=self["lyapunov.eps"],
            a_exp=self["lyapunov.a_exp"],
            b_exp=self["lyapunov.b_exp"],
            mode=mode,
        )

    def scan_config(self) -> ScanConfig:
        return ScanConfig(
            x_half=self["lyapunov.scan_x"],
            v_half=self["lyapunov.scan_v"],
            samples_per_axis=self["lyapunov.samples"],
            exclusion_radii=self["lyapunov.radii"],
        )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; raises ConfigError with every violation.

    This module checks only the file itself: syntax, known keys, and each
    SCHEMA row's allowed values and reading variant.  Each numeric rule
    lives where the value is used, so the typed views are built and the
    diagnostics checks run here, their ValueErrors collected; the solver
    config is built once its model and grid are valid.
    """
    violations: list[str] = []
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in stripped.partition("="))
        if not eq:
            violations.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
        elif key not in SCHEMA:
            violations.append(f"line {lineno}: unknown key {key!r}")
        elif key in raw:
            violations.append(f"line {lineno}: duplicate key {key!r}")
        else:
            try:
                raw[key] = SCHEMA[key][0](value)
            except ValueError:
                violations.append(f"line {lineno}: {key}: cannot parse {value!r}")
    for key, row in SCHEMA.items():
        if key not in raw and row[1] is _REQUIRED:
            violations.append(f"{key}: required key missing")
    if violations:
        raise ConfigError(violations)

    cfg = RunConfig((key, raw.get(key, row[1])) for key, row in SCHEMA.items())
    missing = set()
    for key, (_parse, default, allowed, variant) in SCHEMA.items():
        value = cfg[key]
        if allowed is not None and value not in allowed:
            violations.append(
                f"{key}: must be one of {', '.join(map(repr, allowed))}, got {value!r}"
            )
        if variant is None:
            continue
        choice, wanted = variant
        if cfg[choice] == wanted and value in (None, ""):
            missing.add(key)
            violations.append(f"{key}: required when {choice} = {wanted}")
        elif cfg[choice] != wanted and value != default:
            # a key that the selected variant ignores must keep its default
            violations.append(
                f"{key}: only used when {choice} = {wanted}, got {choice} = {cfg[choice]}"
            )

    def builds(label: str, view) -> bool:
        try:
            view()
        except ValueError as exc:
            violations.append(f"{label}: {exc}")
            return False
        return True

    # a missing tail exponent is reported above; ModelParams would repeat it
    model_ok = not {"model.beta", "model.gamma"} & missing and builds(
        "model", cfg.model_params
    )
    if builds("grid", cfg.phase_grid) and model_ok:
        builds("time", cfg.solver_config)
    builds("lyapunov", cfg.lyapunov_spec)
    builds("lyapunov", cfg.scan_config)
    builds("diagnostics.delta", lambda: check_delta(cfg["diagnostics.delta"]))
    if cfg["diagnostics.rate_mode"] == "exp":
        builds("diagnostics.rate_theta", lambda: check_rate_theta(cfg["diagnostics.rate_theta"]))
    frac = cfg["diagnostics.rate_burn_fraction"]
    builds("diagnostics.rate_burn_fraction", lambda: check_burn_fraction(frac))
    if violations:
        raise ConfigError(violations)
    return cfg


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Deterministic text form; parse(serialize(parse(text))) == parse(text).

    Keys whose value is None (the unused tail exponent of the other
    equilibrium family) are omitted; they re-default on parsing.
    """
    lines = [
        f"{key} = {_format_value(value)}"
        for key, value in cfg.items()
        if value is not None
    ]
    return "\n".join(lines) + "\n"
