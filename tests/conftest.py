import os
from pathlib import Path

import numpy as np
import pytest

import arnolddiff
from arnolddiff.model import ModelParams


@pytest.fixture
def params():
    """Reference parameter set used throughout (a3-normalized, safe regime)."""
    return ModelParams(0.3, 0.1, 1.0, 1.0, 1.0, eps=1e-3)


@pytest.fixture
def params_fig5():
    """Section-portrait parameter set (mu1 = 0.2, mu2 = 0.3)."""
    return ModelParams(0.2, 0.3, 1.0, 1.0, 1.0, eps=1e-3)


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def subprocess_env():
    """Environment for a child interpreter that imports the arnolddiff under test.

    pyproject's ``pythonpath`` setting reaches only the pytest process, so a
    child started by plain ``pytest`` would not find the package; this puts
    the directory holding the imported package first on PYTHONPATH.
    """
    env = dict(os.environ)
    src = str(Path(arnolddiff.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
