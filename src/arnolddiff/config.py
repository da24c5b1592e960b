"""Run configuration: flat INI-style sections, checked against one schema.

A run file holds a [model] section, an [integrator] section, a [run]
section (output directory, seed) and one section per command with its
specific knobs.  ``SCHEMA`` is the one table of what a valid run file is:
for every section and key, the parser that turns the raw string into a
typed value (and rejects a bad one) and the default.  ``REQUIRED`` marks a
key with no default; a ``None`` default means the command works the value
out itself from other keys.  [integrator] holds no numbers of its own: its
keys are ``IntegratorConfig``'s fields, and each one the file sets replaces
that field of the command's base settings (the defaults of the flow it
integrates, e.g. ``highway.TRACE_INTEGRATOR``).  ``RunConfig.validate``
checks a file against the table, and builds that one IntegratorConfig,
before any work starts: an unknown section or key, a missing required key
or a value its parser rejects is a ConfigError.  Raw strings are kept as
read, so a parse -> emit -> parse cycle is the identity.
"""

import configparser
import dataclasses
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
MAX_COUNT = 2**16   # upper bound on seed counts, crossing budgets and grid points
MAX_GRID = math.isqrt(MAX_COUNT)  # per axis of a grid x grid scan
MAX_BRANCH = 2**18  # |j| below it keeps tau*'s bracket argument valid (kernels/pure.py)
REQUIRED = object()  # the default of a key that must be given


def _checked(parse, ok, why):
    """A parser: ``parse`` the raw string, then require ``ok`` of the value."""
    def parser(raw):
        v = parse(raw)
        if not ok(v):
            raise ValueError(why)
        return v
    return parser


def _floats(raw):
    """Comma-separated finite floats, as a tuple."""
    return tuple(_finite(x) for x in raw.split(","))


_finite = _checked(float, math.isfinite, "must be finite")
_count = _checked(int, lambda v: 1 <= v <= MAX_COUNT, f"must be in [1, {MAX_COUNT}]")
_grid = _checked(int, lambda v: 1 <= v <= MAX_GRID, f"must be in [1, {MAX_GRID}]")
_branch = _checked(int, lambda v: abs(v) < MAX_BRANCH, f"must be in (-{MAX_BRANCH}, {MAX_BRANCH})")
_natural = _checked(int, lambda v: v >= 0, "must be >= 0")
_positive = _checked(_finite, lambda v: v > 0.0, "must be > 0")
_nonzero = _checked(_finite, lambda v: v != 0.0, "must be nonzero")
_four = _checked(_floats, lambda v: len(v) == 4, "needs four numbers I1,I2,theta1,theta2")
_waypoints = _checked(lambda raw: tuple(_floats(p) for p in raw.split(";")),
                      lambda pts: all(len(p) == 2 for p in pts), "waypoints are 'x,y; x,y; ...'")

# section -> key -> (parser, default).  [model] and [integrator] keep plain
# float and int parsers: ModelParams and IntegratorConfig check their fields.
# [integrator] has one key per IntegratorConfig field and no numbers of its
# own: a key left out (None) keeps the command's base value.
SCHEMA = {
    "model": dict(a1=(float, REQUIRED), a2=(float, REQUIRED), a3=(float, REQUIRED),
                  omega1=(float, 1.0), omega2=(float, 1.0), eps=(float, 0.0),
                  pendulum_sign=(int, 1)),
    "integrator": {f.name: (f.type, None) for f in dataclasses.fields(IntegratorConfig)},
    "run": dict(output_dir=(str, "out"), seed=(_natural, 0)),
    "crest": dict(i1=(_finite, REQUIRED), i2=(_finite, REQUIRED), grid=(_grid, 128)),
    "tau": dict(i1=(_finite, REQUIRED), i2=(_finite, REQUIRED), grid=(_grid, 64)),
    # theta1_guess, seed_i1 and seed_i2 default to level_point's theta1, I1 and I2
    "poincare": dict(branch=(_branch, 0), level_point=(_four, REQUIRED),
                     section_i1=(_finite, 0.0), theta2_lo=(_finite, REQUIRED),
                     theta2_hi=(_finite, REQUIRED), n_seeds=(_count, 20),
                     theta1_guess=(_finite, None), t_max=(_nonzero, 600.0),
                     max_crossings=(_count, 60), seed_i1=(_finite, None),
                     seed_i2=(_finite, None)),
    "highway": dict(i2_from=(_finite, -7.0), i2_to=(_finite, 7.0), i1_lo=(_finite, 7.0),
                    i1_hi=(_finite, 9.0), n_seeds=(_count, 5), drift_tol=(_positive, 1e-7)),
    # eps <= 0: half the path's threshold, at most 1e-3
    "diffuse": dict(waypoints=(_waypoints, REQUIRED), delta=(_positive, 0.1),
                    eps=(_finite, 0.0), theta1=(_finite, 2.0), theta2=(_finite, 4.4)),
    # state has no length check yet: a three-number state escapes as a ValueError
    "verify": dict(state=(_floats, REQUIRED), branch=(_branch, 0),
                   eps_list=(_floats, (1e-3, 5e-4))),
    # i1_stop defaults to seed_i1 + 1.3, omega_lo and omega_hi to
    # Omega1 * (seed_i1 + 0.02) and Omega1 * (i1_stop - 0.05)
    "time": dict(seed_i1=(_finite, 7.0), seed_i2=(_finite, -7.0), i1_stop=(_finite, None),
                 omega_lo=(_finite, None), omega_hi=(_finite, None), eps=(_positive, 1e-3)),
}


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
                out.write(f"{k} = {v}\n")
            out.write("\n")
        return out.getvalue()

    def digest(self):
        return hashlib.sha256(self.emit().encode()).hexdigest()

    def validate(self, section, base):
        """Check the file against SCHEMA; returns ``self.integrator(base)``.

        Every section and key must be in SCHEMA.  [model], [integrator],
        [run] and ``section`` (the one a command reads, if any) must parse,
        and the model and integrator settings must pass their own checks.
        Raises ConfigError and creates nothing.
        """
        for sec, kv in self.sections.items():
            if sec not in SCHEMA:
                raise ConfigError(f"unknown section [{sec}]")
            for key in kv:
                if key not in SCHEMA[sec]:
                    raise ConfigError(f"unknown key '{key}' in [{sec}]")
        self.model_params()
        integrator = self.integrator(base)
        self.values("run")
        if section is not None:
            self.values(section)
        return integrator

    def values(self, section):
        """The section's typed values: each SCHEMA key parsed, or its default."""
        raw = self.sections.get(section, {})
        out = {}
        for key, (parse, default) in SCHEMA[section].items():
            if key not in raw:
                if default is REQUIRED:
                    raise ConfigError(f"missing key '{key}' in [{section}]")
                out[key] = default
                continue
            try:
                out[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for '{key}' in [{section}]: {raw[key]!r} ({exc})"
                ) from None
        return out

    def model_params(self):
        m = self.values("model")
        try:
            return ModelParams(
                m["a1"], m["a2"], m["a3"], m["omega1"], m["omega2"], m["eps"],
                m["pendulum_sign"],
            )
        except ValueError as exc:
            raise ConfigError(f"bad [model] section: {exc}") from None

    def integrator(self, base):
        """The IntegratorConfig ``base`` with each field [integrator] sets replaced."""
        given = {k: v for k, v in self.values("integrator").items() if v is not None}
        try:
            return dataclasses.replace(base, **given)
        except ValueError as exc:
            raise ConfigError(f"bad [integrator] section: {exc}") from None

    def output_dir(self, override=None):
        """The run's output directory, made with any missing parents.

        Returns ``(path, made)``: ``made`` lists the directories this call
        created, deepest first, for ``cli.run`` to remove again when a
        config error leaves them empty.
        """
        d = override or os.environ.get(ENV_OUTDIR) or self.values("run")["output_dir"]
        made = []
        parent = os.path.abspath(d)
        while not os.path.isdir(parent):
            made.append(parent)
            parent = os.path.dirname(parent)
        try:
            os.makedirs(d, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {d!r}: {exc}") from None
        return d, made

    def seed(self):
        return self.values("run")["seed"]


def write_metadata(outdir, command, config, integrator):
    """Per-run provenance record: config hash, version, every integrator setting."""
    from . import __version__, kernels

    meta = {
        "command": command,
        "config_sha256": config.digest(),
        "version": __version__,
        "kernel_backend": kernels.BACKEND,
        **dataclasses.asdict(integrator),
        "seed": config.seed(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
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
