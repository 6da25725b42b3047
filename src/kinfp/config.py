"""Flat dotted-key run configuration: parsing, validation, serialisation.

The on-disk format is one ``section.key = value`` assignment per line, with
``#`` comments and blank lines ignored.  Parsing is strict: unknown keys are
rejected and every violation is reported (not just the first).  Writing a
parsed config and re-parsing it round-trips exactly.

Required keys: ``model.alpha``, ``model.kind`` and the matching tail
exponent (``model.beta`` for ``exp``, ``model.gamma`` for ``poly``).  Every
other key has the documented default shown in ``SCHEMA``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import PhaseGrid
from .model import ExpWeight, LyapunovSpec, ModelParams, PolyWeight
from .solver import SolverConfig, cfl_timestep
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


@dataclass(frozen=True)
class RunConfig:
    """A fully validated configuration (flat mapping of SCHEMA keys)."""

    entries: tuple[tuple[str, object], ...]

    def __getitem__(self, key: str):
        for k, v in self.entries:
            if k == key:
                return v
        raise KeyError(key)

    def as_dict(self) -> dict:
        return dict(self.entries)

    # -- typed views ---------------------------------------------------
    def model_params(self) -> ModelParams:
        kind = self["model.kind"]
        return ModelParams(
            alpha=self["model.alpha"],
            kind=kind,
            beta=self["model.beta"] if kind == "exp" else None,
            gamma=self["model.gamma"] if kind == "poly" else None,
            dim=1,
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


def _validate(values: dict[str, object], violations: list[str]) -> None:
    def check(cond: bool, message: str):
        if not cond:
            violations.append(message)

    kind = values.get("model.kind")
    check(kind in ("exp", "poly"), f"model.kind: must be 'exp' or 'poly', got {kind!r}")
    alpha = values.get("model.alpha")
    if alpha is not None:
        check(alpha > 1.0, f"model.alpha: alpha must exceed 1, got {alpha}")
    if kind == "exp":
        beta = values.get("model.beta")
        check(
            beta is not None and beta > 0.0,
            "model.beta: required and positive for kind = exp",
        )
    elif kind == "poly":
        gamma = values.get("model.gamma")
        check(
            gamma is not None and gamma > 1.0,
            "model.gamma: required and > 1 for kind = poly",
        )
    for key in ("grid.L", "grid.v_max", "time.cfl_safety"):
        check(values[key] > 0.0, f"{key}: must be positive, got {values[key]}")
    check(values["time.cfl_safety"] <= 1.0, "time.cfl_safety: must be at most 1")
    for key in ("grid.Nx", "grid.Nv"):
        n = values[key]
        check(n > 0 and n % 2 == 0, f"{key}: must be even and positive, got {n}")
    check(values["time.t_final"] >= 0.0, "time.t_final: must be nonnegative")
    for key in ("diagnostics.cadence", "diagnostics.snapshot_cadence"):
        check(values[key] >= 1, f"{key}: must be a positive step count")
    check(
        values["initial.preset"] in ("paper-default", "file"),
        f"initial.preset: must be 'paper-default' or 'file', got {values['initial.preset']!r}",
    )
    if values["initial.preset"] == "file":
        check(bool(values["initial.file"]), "initial.file: required when preset = file")
    check(
        values["diagnostics.reference"] in ("none", "profile", "file"),
        "diagnostics.reference: must be 'none', 'profile' or 'file'",
    )
    if values["diagnostics.reference"] == "file":
        check(
            bool(values["diagnostics.reference_file"]),
            "diagnostics.reference_file: required when reference = file",
        )
    check(
        values["diagnostics.rate_mode"] in ("exp", "poly"),
        "diagnostics.rate_mode: must be 'exp' or 'poly'",
    )
    check(
        values["lyapunov.mode"] in ("exp", "poly"),
        "lyapunov.mode: must be 'exp' or 'poly'",
    )
    check(
        values["output.snapshot_format"] in ("csv", "checkpoint"),
        "output.snapshot_format: must be 'csv' or 'checkpoint'",
    )

    # cross-field: explicit dt against the CFL bound of the configured grid
    dt = values.get("time.dt")
    if not violations and dt != "auto":
        try:
            params = ModelParams(
                alpha=values["model.alpha"],
                kind=kind,
                beta=values.get("model.beta") if kind == "exp" else None,
                gamma=values.get("model.gamma") if kind == "poly" else None,
            )
            grid = PhaseGrid(
                L=values["grid.L"],
                v_max=values["grid.v_max"],
                Nx=values["grid.Nx"],
                Nv=values["grid.Nv"],
            )
            bound = cfl_timestep(grid, params, values["time.cfl_safety"])
            dt_val = float(dt)
            check(
                dt_val > 0.0 and dt_val <= bound * (1.0 + 1e-12),
                f"time.dt: dt={dt_val:g} exceeds the CFL bound {bound:g}",
            )
        except ValueError as exc:  # grid/model construction failure
            violations.append(f"time.dt: cannot validate ({exc})")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; raises ConfigError with every violation."""
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
    _validate(values, violations)
    if violations:
        raise ConfigError(violations)
    return RunConfig(entries=tuple((k, values[k]) for k in SCHEMA))


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
