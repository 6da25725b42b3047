"""Flat dotted-key run configuration: parsing, validation, serialisation.

The on-disk format is one ``section.key = value`` assignment per line, with
``#`` comments and blank lines ignored.  Parsing is strict: unknown keys are
rejected and every violation is reported (not just the first).  Writing a
parsed config and re-parsing it round-trips exactly.

Required keys: ``model.alpha``, ``model.kind`` and the matching tail
exponent (``model.beta`` for ``exp``, ``model.gamma`` for ``poly``).  Every
other key has the documented default shown in ``SCHEMA``.  A key that only
one variant of a choice reads (the tail exponents, the weight parameters
``lyapunov.theta``, ``lyapunov.delta`` and ``lyapunov.k``,
``diagnostics.rate_theta``, ``initial.file`` and
``diagnostics.reference_file``) is refused under the other variants unless
it keeps its default.

Every key is validated at parse time, for every command, by the object
that uses it: ``ModelParams``, ``PhaseGrid``, ``SolverConfig``,
``LyapunovSpec`` (with its weight mode) and ``ScanConfig``, built through
the typed views of ``RunConfig``.  So ``model.gamma`` needs only gamma > 0,
the range where the solver and the normalisation are defined; the drift
certifier itself refuses a poly model unless 3/2 < ell < 1 + gamma/2, which
excludes gamma <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# key -> (python type, default or _REQUIRED)
SCHEMA: dict[str, tuple] = {
    "model.alpha": (float, _REQUIRED),
    "model.kind": (str, _REQUIRED),  # "exp" | "poly"
    "model.beta": (float, None),  # required when kind = exp
    "model.gamma": (float, None),  # required when kind = poly
    "grid.L": (float, 50.0),
    "grid.v_max": (float, 50.0),
    "grid.Nx": (int, 128),
    "grid.Nv": (int, 128),
    "time.t_final": (float, 10.0),
    "time.dt": (str, "auto"),  # "auto" or a float literal
    "time.cfl_safety": (float, 0.45),
    "initial.preset": (str, "paper-default"),  # or "file"
    "initial.file": (str, ""),  # checkpoint path when preset = file
    "diagnostics.cadence": (int, 100),
    "diagnostics.snapshot_cadence": (int, 1000),
    "diagnostics.reference": (str, "none"),  # none | profile | file
    "diagnostics.reference_file": (str, ""),
    "diagnostics.delta": (float, 1.15),
    "diagnostics.rate_mode": (str, "exp"),  # exp | poly
    "diagnostics.rate_theta": (float, 0.25),
    "diagnostics.rate_burn_fraction": (float, 0.1),
    "lyapunov.ell": (float, 2.0),
    "lyapunov.eps": (float, 0.2),
    "lyapunov.a_exp": (float, 1.0),
    "lyapunov.b_exp": (float, 0.6),
    "lyapunov.mode": (str, "exp"),  # exp | poly
    "lyapunov.theta": (float, 0.25),
    "lyapunov.delta": (float, 2.0),
    "lyapunov.k": (float, 1.5),
    "lyapunov.scan_x": (float, 50.0),
    "lyapunov.scan_v": (float, 50.0),
    "lyapunov.samples": (int, 256),
    "lyapunov.radii": (_float_list, (20.0, 25.0, 30.0, 35.0, 40.0, 45.0)),
    "output.dir": (str, "out"),
    "output.snapshot_format": (str, "csv"),  # csv | checkpoint
}

# choice keys read by this module or the CLI, with their allowed values
# (model.kind is checked by ModelParams)
_CHOICES: dict[str, tuple[str, ...]] = {
    "initial.preset": ("paper-default", "file"),
    "diagnostics.reference": ("none", "profile", "file"),
    "diagnostics.rate_mode": ("exp", "poly"),
    "lyapunov.mode": ("exp", "poly"),
    "output.snapshot_format": ("csv", "checkpoint"),
}

# key -> (choice key, the value of it that requires the key; under any
# other value the key must keep its default)
_REQUIRED_BY: dict[str, tuple[str, str]] = {
    "model.beta": ("model.kind", "exp"),
    "model.gamma": ("model.kind", "poly"),
    "lyapunov.theta": ("lyapunov.mode", "exp"),
    "lyapunov.delta": ("lyapunov.mode", "exp"),
    "lyapunov.k": ("lyapunov.mode", "poly"),
    "diagnostics.rate_theta": ("diagnostics.rate_mode", "exp"),
    "initial.file": ("initial.preset", "file"),
    "diagnostics.reference_file": ("diagnostics.reference", "file"),
}


@dataclass(frozen=True)
class RunConfig:
    """A fully validated configuration (flat mapping of SCHEMA keys)."""

    entries: tuple[tuple[str, object], ...]

    def __getitem__(self, key: str):
        for k, v in self.entries:
            if k == key:
                return v
        raise KeyError(key)

    # -- typed views ---------------------------------------------------
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


def _parse_lines(text: str, violations: list[str]) -> dict[str, object]:
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        typ, _default = SCHEMA[key]
        try:
            if key == "time.dt":
                raw[key] = "auto" if value == "auto" else repr(float(value))
            elif typ is int:
                raw[key] = int(value)
            elif typ is float:
                raw[key] = float(value)
            elif typ is _float_list:
                raw[key] = _float_list(value)
            else:
                raw[key] = value
        except ValueError:
            violations.append(f"line {lineno}: {key}: cannot parse {value!r}")
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; raises ConfigError with every violation.

    This module checks only the file itself: syntax, known keys, choice
    values and keys that another key's value requires or ignores.  Each
    numeric rule lives in the object that uses the value, so the typed views
    are built here and their ValueErrors collected; the solver config is
    built once its model and grid are valid.
    """
    violations: list[str] = []
    raw = _parse_lines(text, violations)
    values = {}
    for key, (_typ, default) in SCHEMA.items():
        if key in raw:
            values[key] = raw[key]
        elif default is _REQUIRED:
            violations.append(f"{key}: required key missing")
        else:
            values[key] = default
    if violations:
        raise ConfigError(violations)

    missing = [
        key
        for key, (choice, value) in _REQUIRED_BY.items()
        if values[choice] == value and values[key] in (None, "")
    ]
    violations = [f"{key}: required when {' = '.join(_REQUIRED_BY[key])}" for key in missing]
    # a key that the selected variant ignores must keep its default
    violations += [
        f"{key}: only used when {choice} = {value}, got {choice} = {values[choice]}"
        for key, (choice, value) in _REQUIRED_BY.items()
        if values[choice] != value and values[key] != SCHEMA[key][1]
    ]
    violations += [
        f"{key}: must be one of {', '.join(map(repr, allowed))}, got {values[key]!r}"
        for key, allowed in _CHOICES.items()
        if values[key] not in allowed
    ]
    # no object owns the burn-in share: fit-rate turns it into a time
    frac = values["diagnostics.rate_burn_fraction"]
    if not 0.0 <= frac < 1.0:
        violations.append(f"diagnostics.rate_burn_fraction: must lie in [0, 1), got {frac}")

    cfg = RunConfig(entries=tuple((k, values[k]) for k in SCHEMA))

    def builds(label: str, view) -> bool:
        try:
            view()
        except ValueError as exc:
            violations.append(f"{label}: {exc}")
            return False
        return True

    # a missing tail exponent is reported above; ModelParams would repeat it
    model_ok = not {"model.beta", "model.gamma"} & set(missing) and builds(
        "model", cfg.model_params
    )
    if builds("grid", cfg.phase_grid) and model_ok:
        builds("time", cfg.solver_config)
    builds("lyapunov", cfg.lyapunov_spec)
    builds("lyapunov", cfg.scan_config)
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
        for key, value in cfg.entries
        if value is not None
    ]
    return "\n".join(lines) + "\n"
