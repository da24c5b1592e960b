"""Run configuration: flat INI-style sections, round-trippable, hashed.

A run file holds a [model] section, an [integrator] section, a [run]
section (output directory, seed) and one section per command with its
specific knobs.  Values are written back with 17 significant digits so a
parse -> emit -> parse cycle is the identity.
"""

import configparser
import hashlib
import io
import json
import math
import os
import time

from .errors import ConfigError, InvariantViolation
from .model import ModelParams
from .ode import IntegratorConfig

ENV_OUTDIR = "ARNOLDDIFF_OUTDIR"


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


class RunConfig:
    def __init__(self, sections):
        self.sections = {s: dict(kv) for s, kv in sections.items()}

    @classmethod
    def parse(cls, text):
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from None
        return cls({s: dict(cp.items(s)) for s in cp.sections()})

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                return cls.parse(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None

    def emit(self):
        out = io.StringIO()
        for sec, kv in self.sections.items():
            out.write(f"[{sec}]\n")
            for k, v in kv.items():
                out.write(f"{k} = {_fmt(v)}\n")
            out.write("\n")
        return out.getvalue()

    def digest(self):
        return hashlib.sha256(self.emit().encode()).hexdigest()

    def _section(self, name):
        if name not in self.sections:
            raise ConfigError(f"missing [{name}] section")
        return self.sections[name]

    def get(self, section, key, cast=str, default=None):
        sec = self._section(section) if default is None else self.sections.get(section, {})
        if key not in sec:
            if default is not None:
                return default
            raise ConfigError(f"missing key '{key}' in [{section}]")
        raw = sec[key]
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except ValueError:
            raise ConfigError(
                f"bad value for '{key}' in [{section}]: {raw!r} (expected {cast.__name__})"
            ) from None

    def model_params(self):
        g = self.get
        kw = dict(
            a1=g("model", "a1", float),
            a2=g("model", "a2", float),
            a3=g("model", "a3", float),
            Omega1=g("model", "omega1", float, default=1.0),
            Omega2=g("model", "omega2", float, default=1.0),
            eps=g("model", "eps", float, default=0.0),
        )
        bad = [k for k, v in kw.items() if not math.isfinite(v)]
        if bad:
            raise ConfigError(f"non-finite value for {', '.join(bad)} in [model]")
        try:
            return ModelParams(
                pendulum_sign=g("model", "pendulum_sign", int, default=1), **kw
            )
        except ValueError as exc:
            raise ConfigError(f"bad [model] section: {exc}") from None

    def integrator(self, **overrides):
        kw = dict(
            abs_tol=self.get("integrator", "abs_tol", float, default=1e-12),
            rel_tol=self.get("integrator", "rel_tol", float, default=1e-12),
            h_init=self.get("integrator", "h_init", float, default=1e-2),
            h_min=self.get("integrator", "h_min", float, default=1e-13),
            h_max=self.get("integrator", "h_max", float, default=1e3),
            max_steps=self.get("integrator", "max_steps", int, default=2_000_000),
        )
        kw.update(overrides)
        try:
            return IntegratorConfig(**kw)
        except ValueError as exc:
            raise ConfigError(f"bad [integrator] section: {exc}") from None

    def output_dir(self, override=None):
        d = override or os.environ.get(ENV_OUTDIR) or self.get(
            "run", "output_dir", str, default="out"
        )
        os.makedirs(d, exist_ok=True)
        return d

    def seed(self):
        return self.get("run", "seed", int, default=0)


def write_metadata(outdir, command, config, extra=None):
    """Per-run provenance record: config hash, version, tolerances."""
    from . import __version__, kernels

    cfg_i = config.integrator()
    meta = {
        "command": command,
        "config_sha256": config.digest(),
        "version": __version__,
        "kernel_backend": kernels.BACKEND,
        "abs_tol": cfg_i.abs_tol,
        "rel_tol": cfg_i.rel_tol,
        "seed": config.seed(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    if extra:
        meta.update(extra)
    return write_json(os.path.join(outdir, f"{command}_metadata.json"), command, meta)


def write_json(path, command, data):
    """Write `data` as strict JSON; a NaN or infinity is an InvariantViolation."""
    try:
        text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvariantViolation(f"{command}: cannot write {path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text)
    return path
