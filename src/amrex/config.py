"""Run configuration shared by the CLI subcommands.

Precedence, lowest to highest: built-in defaults, config file (``key=value``
lines, ``#`` comments), environment variables prefixed ``AMREX_``, then
command-line flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ConfigError

_DATASET_LAMBDA_DEFAULTS = {"fever": 0.0, "averitec": 0.9}


@dataclass
class RunConfig:
    dataset: str | None = None
    lam: float | None = None          # resolved per dataset when left unset
    restarts: int = 4
    seed: int = 0
    include_top: bool = True
    backend: str = "test"
    empty_evidence: str = "error"     # or "label-N"
    question_mode: str = "answer-only"
    jobs: int = 0                     # 0 = every usable CPU

    def resolved_lambda(self) -> float:
        lam = _DATASET_LAMBDA_DEFAULTS.get(self.dataset, 0.0) if self.lam is None else self.lam
        if not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {lam}")
        return lam

    def resolved_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else usable_cpus()


def usable_cpus() -> int:
    """CPUs this process may run on; all of them where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(jobs: int, pairs: int, cpus: int) -> int:
    """Alignment processes for *pairs* pairs: never more than asked for,
    than there are pairs, or than there are usable CPUs."""
    return max(1, min(jobs, pairs, cpus))


_COERCERS = {
    "dataset": str, "lam": float, "restarts": int, "seed": int,
    "include_top": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "backend": str, "empty_evidence": str, "question_mode": str, "jobs": int,
}
# Accept "lambda" as the user-facing name for the weight.
_ALIASES = {"lambda": "lam"}


def _apply(cfg: RunConfig, key: str, raw: str, origin: str) -> None:
    key = _ALIASES.get(key, key)
    if key not in _COERCERS:
        raise ConfigError(f"{origin}: unknown configuration key {key!r}")
    try:
        setattr(cfg, key, _COERCERS[key](raw))
    except ValueError:
        raise ConfigError(f"{origin}: bad value {raw!r} for {key!r}")


def load_config_file(cfg: RunConfig, path: str) -> None:
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            _apply(cfg, key.strip(), value.strip(), f"{path}:{lineno}")


def apply_env(cfg: RunConfig, environ=None) -> None:
    environ = os.environ if environ is None else environ
    for field in fields(RunConfig):
        for name in (field.name, *[a for a, t in _ALIASES.items() if t == field.name]):
            env_key = f"AMREX_{name.upper()}"
            if env_key in environ:
                _apply(cfg, name, environ[env_key], env_key)


def effective_config_lines(cfg: RunConfig) -> list[str]:
    """Key=value lines that make a run re-executable byte-identically."""
    lines = []
    for field in fields(RunConfig):
        value = getattr(cfg, field.name)
        name = "lambda" if field.name == "lam" else field.name
        lines.append(f"# {name} = {value}")
    return lines
