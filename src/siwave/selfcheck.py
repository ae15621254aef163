"""Empty placeholder module; siwave has no built-in self-check suites.

The invariants once run here are asserted by the test suite under
``tests/``.  The module stays only because the benchmark tracer
(``perfbench/tracer.py``, ``MODULES``) imports every ``siwave`` module it
names, ``selfcheck`` among them, and a traced run would stop with
``ModuleNotFoundError`` without it.  Untraced runs never import it.
"""
