from setuptools import Extension, setup

# The forced-system kernel is plain C loaded through ctypes (no Python
# C-API).  optional=True: without a C compiler the install still succeeds
# and the package runs its pure-Python twin.
setup(
    ext_modules=[
        Extension(
            "fhnburst._kernel",
            ["src/fhnburst/_kernel.c"],
            extra_compile_args=["-std=c99", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
