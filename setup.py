"""Build script for the optional compiled kernel core.

The package works without the extension (a pure-Python twin is selected at
import time); building it just makes the hot kernels fast.  With Cython the
extension is generated from ``_speedups.pyx``; without it the shipped
``_speedups.c`` is compiled as is, so ``python setup.py build_ext --inplace``
needs only a C compiler.
"""

import os

from setuptools import Extension, setup

_SRC = "src/arnolddiff/kernels/_speedups"

ext_modules = []
try:
    from Cython.Build import cythonize
except ImportError:
    if os.path.exists(_SRC + ".c"):
        ext_modules = [
            Extension("arnolddiff.kernels._speedups", [_SRC + ".c"], extra_compile_args=["-O3"])
        ]
else:
    ext_modules = cythonize(
        [
            Extension(
                "arnolddiff.kernels._speedups",
                [_SRC + ".pyx"],
                extra_compile_args=["-O3"],
            )
        ],
        language_level=3,
    )

setup(ext_modules=ext_modules)
