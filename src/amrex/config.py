"""Run configuration shared by the CLI subcommands.

Precedence, lowest to highest: built-in defaults, config file (``key=value``
lines, ``#`` comments), environment variables prefixed ``AMREX_``, then
command-line flags.  Each RunConfig field declares its setting once: the
file/env key, the parser of a raw value, the allowed values and the flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError

_DATASET_LAMBDA_DEFAULTS = {"fever": 0.0, "averitec": 0.9}
QUESTION_MODES = ("answer-only", "question-plus-answer")


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in _BOOLS:
        raise ValueError(f"not a boolean: {raw!r}")
    return _BOOLS[raw.lower()]


def _setting(default, parse=str, key=None, choices=None, **flag):
    """A RunConfig field: *key* names it in files and ``AMREX_*`` (the field
    name unless given), *parse* reads a raw value, *choices* lists the values
    allowed, and *flag* holds the extra argparse arguments of its flag
    (``name`` spells a flag other than ``--key``)."""
    return field(default=default, metadata={
        "key": key, "parse": parse, "choices": choices, "flag": flag})


@dataclass
class RunConfig:
    dataset: str | None = _setting(None, choices=tuple(_DATASET_LAMBDA_DEFAULTS),
                                   required=True)
    # resolved per dataset when left unset
    lam: float | None = _setting(None, float, key="lambda",
                                 help="weight of the structural score in [0, 1]")
    restarts: int = _setting(4, int)
    seed: int = _setting(0, int)
    include_top: bool = _setting(
        True, _parse_bool, name="--no-top", action="store_false",
        help="exclude the top triple from alignment scoring")
    backend: str = _setting(
        "test", help="similarity backend: test[:dim=N], file:<path>, service:<url>")
    empty_evidence: str = _setting("error", choices=("error", "label-N"))
    question_mode: str = _setting("answer-only", choices=QUESTION_MODES)
    # 0 = every usable CPU
    jobs: int = _setting(0, int, help="alignment worker processes, capped at "
                                      "usable CPUs; 1 aligns in this process")

    def resolved_lambda(self) -> float:
        lam = _DATASET_LAMBDA_DEFAULTS.get(self.dataset, 0.0) if self.lam is None else self.lam
        if not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {lam}")
        return lam

    def resolved_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else usable_cpus()


def setting_key(f) -> str:
    """The name of RunConfig field *f* in config files, ``AMREX_*`` and flags."""
    return f.metadata["key"] or f.name


_BY_KEY = {setting_key(f): f for f in fields(RunConfig)}


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


def _apply(cfg: RunConfig, key: str, raw: str, origin: str) -> None:
    f = _BY_KEY.get(key)
    if f is None:
        raise ConfigError(f"{origin}: unknown configuration key {key!r}")
    try:
        value = f.metadata["parse"](raw)
    except ValueError:
        raise ConfigError(f"{origin}: bad value {raw!r} for {key!r}")
    choices = f.metadata["choices"]
    if choices and value not in choices:
        raise ConfigError(f"{origin}: bad value {raw!r} for {key!r}; "
                          f"choose from {', '.join(choices)}")
    setattr(cfg, f.name, value)


def load_config_file(cfg: RunConfig, path: str) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        _apply(cfg, key.strip(), value.strip(), f"{path}:{lineno}")


def apply_env(cfg: RunConfig, environ=None) -> None:
    environ = os.environ if environ is None else environ
    for key in _BY_KEY:
        env_key = f"AMREX_{key.upper()}"
        if env_key in environ:
            _apply(cfg, key, environ[env_key], env_key)


def effective_config_lines(cfg: RunConfig, names) -> list[str]:
    """``# key = value`` lines for the RunConfig fields *names*, each with
    the value a run uses, so the run can be repeated byte-identically."""
    used = {"lam": cfg.resolved_lambda, "jobs": cfg.resolved_jobs}
    return [f"# {setting_key(f)} = "
            f"{used[f.name]() if f.name in used else getattr(cfg, f.name)}"
            for f in fields(RunConfig) if f.name in names]
