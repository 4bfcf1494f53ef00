"""Build script. The compiled kernel module is optional: when a C toolchain
is unavailable the package installs anyway and falls back to the
pure-Python kernels at import time. Without Cython the shipped
``_native.c``, generated from ``_native.pyx``, is compiled instead."""

import os

from setuptools import Extension, setup

ext_modules = []
if not os.environ.get("BWTVARIANTS_NO_EXT"):
    try:
        from Cython.Build import cythonize
    except ImportError:
        cythonize = None
    source = "src/bwtvariants/_native." + ("pyx" if cythonize else "c")
    ext_modules = [
        Extension(
            "bwtvariants._native", [source], extra_compile_args=["-O2"], optional=True
        )
    ]
    if cythonize:
        ext_modules = cythonize(
            ext_modules,
            compiler_directives={
                "language_level": "3",
                "boundscheck": False,
                "wraparound": False,
                "cdivision": True,
            },
        )

setup(ext_modules=ext_modules)
