"""Build script: compiles the optional fast kernel extension.

The package is fully functional without the extension; polaris.kernels
falls back to the pure-Python implementation at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "polaris.kernels._ckernel",
            ["src/polaris/kernels/_ckernel.c"],
            # keep float results bit-identical to the pure-Python backend:
            # no fused multiply-add, no pairing of cos+sin into sincos
            extra_compile_args=["-O2", "-ffp-contract=off", "-fno-builtin-sin", "-fno-builtin-cos", "-fno-builtin-sincos"],
            optional=True,
        )
    ]
)
