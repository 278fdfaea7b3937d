from setuptools import Extension, setup

# The compiled kernel builds from the hand-written C file. Without a C
# compiler the extension is skipped and emclab.kernel uses the pure-Python twin.
setup(ext_modules=[Extension("emclab._kernel", ["src/emclab/_kernel.c"], optional=True)])
