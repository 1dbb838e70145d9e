"""Experiment configuration: a flat INI file with one section per module.

Sections: ``[experiment]`` (environment, curriculum mode, iteration budget),
``[environment]`` (for the point mass ``context_visible``, for the synthetic
environment the value bump's ``width``), ``[target]`` and ``[initial]`` (context
distribution parameters), ``[curriculum]`` and ``[evaluation]``.  A section or
a key that is not read is an error, so a misspelt name cannot silently leave a
default in place; a retired key (:data:`RETIRED`) loads at its one value only.

Shipped presets live in ``spgl/presets``: the two point-mass setups and the
synthetic convergence run.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .envs import PointMassEnv, SyntheticEnv
from .gaussian import ContextDistribution, TargetSpec
from .learner import GAMMA, LEARNING_RATE
from .update import CurriculumConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "available_presets",
    "load_config",
    "preset_path",
]

CURRICULUM_MODES = ("default", "spgl", "numerical")
ENVIRONMENTS = ("point_mass", "synthetic")
# The [environment] keys each environment reads; any other key is an error.
ENVIRONMENT_KEYS = {
    "point_mass": ("context_visible",),
    "synthetic": ("width",),
}
# The keys each other section reads; any other section or key is an error.
SECTION_KEYS = {
    "experiment": ("name", "environment", "curriculum", "iterations", "seed"),
    "target": ("mu", "sigma"),
    "initial": ("mu", "theta"),
    "curriculum": ("epsilon", "v_lower", "k_contexts"),
    "evaluation": ("episodes",),
}
# Keys that older files still set, each loadable only at the one value every
# file used and parsed by that value's type: the curriculum updates every
# iteration, and the learner's discount and step size are constants.
RETIRED = {
    ("experiment", "runnable"): True,
    ("curriculum", "update_period"): 1,
    ("learner", "gamma"): GAMMA,
    ("learner", "learning_rate"): LEARNING_RATE,
}


class ConfigError(ValueError):
    """Invalid or unusable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one training run needs.

    ``context_visible`` is read by the point mass only and ``width`` by the
    synthetic environment only.
    """

    name: str
    environment: str
    curriculum_mode: str
    iterations: int
    seed: int
    target: TargetSpec
    initial_mu: np.ndarray
    initial_theta: np.ndarray
    curriculum: CurriculumConfig
    eval_episodes: int
    context_visible: bool
    width: float

    def initial_distribution(self) -> ContextDistribution:
        return ContextDistribution(mu=self.initial_mu, theta=self.initial_theta, target=self.target)

    def make_environment(self):
        if self.environment == "point_mass":
            return PointMassEnv(context_visible=self.context_visible)
        return SyntheticEnv(difficulty_center=self.target.mu_tilde, width=self.width)


def _parse_vector(raw: str, name: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in raw.replace(",", " ").split()], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"could not parse vector '{name}': {raw!r}") from exc


def _get(parser, section, option, cast, default=None, required=False):
    if not parser.has_option(section, option):
        if required:
            raise ConfigError(f"missing option [{section}] {option}")
        return default
    raw = parser.get(section, option)
    try:
        if cast is bool:
            return parser.getboolean(section, option)
        return cast(raw)
    except (ValueError, AttributeError) as exc:
        raise ConfigError(f"bad value for [{section}] {option}: {raw!r}") from exc


def _build(section, cls, **kwargs):
    """``cls(**kwargs)``, with a value that ``cls`` rejects reported as a
    configuration error in ``[section]``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"config path is not a regular file: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with path.open(encoding="utf-8") as handle:
            parser.read_file(handle)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {path}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc

    for section in ("experiment", "target", "initial", "curriculum"):
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}] in {path}")

    environment = _get(parser, "experiment", "environment", str, required=True)
    if environment not in ENVIRONMENTS:
        raise ConfigError(f"unknown environment '{environment}'")
    curriculum_mode = _get(parser, "experiment", "curriculum", str, default="spgl")
    if curriculum_mode not in CURRICULUM_MODES:
        raise ConfigError(f"unknown curriculum mode '{curriculum_mode}'")

    known = {**SECTION_KEYS, "environment": ENVIRONMENT_KEYS[environment]}
    for section in parser.sections():
        keys = known.get(section, ()) + tuple(k for s, k in RETIRED if s == section)
        if not keys:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in parser.options(section):
            if key not in keys:
                where = f" for {environment}" if section == "environment" else ""
                raise ConfigError(f"unknown [{section}] key '{key}'{where}")
    for (section, key), value in RETIRED.items():
        if parser.has_option(section, key) and _get(parser, section, key, type(value)) != value:
            raise ConfigError(f"[{section}] {key} is retired: it may only be {str(value).lower()}")

    target = _build(
        "target",
        TargetSpec,
        mu_tilde=_parse_vector(parser.get("target", "mu"), "target.mu"),
        sigma_tilde_diag=_parse_vector(parser.get("target", "sigma"), "target.sigma"),
    )
    initial_mu = _parse_vector(parser.get("initial", "mu"), "initial.mu")
    initial_theta = _parse_vector(parser.get("initial", "theta"), "initial.theta")
    if initial_mu.shape != target.mu_tilde.shape or initial_theta.shape != target.mu_tilde.shape:
        raise ConfigError("initial and target context dimensions differ")

    curriculum = _build(
        "curriculum",
        CurriculumConfig,
        epsilon=_get(parser, "curriculum", "epsilon", float, required=True),
        v_lower=_get(parser, "curriculum", "v_lower", float, required=True),
        k_contexts=_get(parser, "curriculum", "k_contexts", int, default=64),
    )

    config = ExperimentConfig(
        name=_get(parser, "experiment", "name", str, default=path.stem),
        environment=environment,
        curriculum_mode=curriculum_mode,
        iterations=_get(parser, "experiment", "iterations", int, default=200),
        seed=_get(parser, "experiment", "seed", int, default=0),
        target=target,
        initial_mu=initial_mu,
        initial_theta=initial_theta,
        curriculum=curriculum,
        eval_episodes=_get(parser, "evaluation", "episodes", int, default=50)
        if parser.has_section("evaluation")
        else 50,
        context_visible=_get(parser, "environment", "context_visible", bool, default=False),
        width=_get(parser, "environment", "width", float, default=50.0),
    )
    if config.iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if config.eval_episodes < 1:
        raise ConfigError("[evaluation] episodes must be >= 1")
    _build("environment", config.make_environment)
    try:
        config.initial_distribution()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def available_presets() -> list[str]:
    """Names of the shipped preset files."""
    pkg = resources.files("spgl") / "presets"
    return sorted(p.name for p in pkg.iterdir() if p.name.endswith(".ini"))


def preset_path(name: str) -> Path:
    """Filesystem path of a shipped preset (with or without extension)."""
    if not name.endswith(".ini"):
        name = f"{name}.ini"
    candidate = resources.files("spgl") / "presets" / name
    if not candidate.is_file():
        raise ConfigError(
            f"unknown preset '{name}'; available: {', '.join(available_presets())}"
        )
    return Path(str(candidate))
