"""Build script. The compiled kernel module is optional: when a C toolchain
is unavailable the package installs anyway and falls back to the
pure-Python kernels at import time. The module is compiled from the
shipped ``_native.c``, generated from ``_native.pyx``, so no Cython is
needed."""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "bwtvariants._native",
            ["src/bwtvariants/_native.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
