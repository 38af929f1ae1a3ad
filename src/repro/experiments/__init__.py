"""Experiment harnesses: one module per evaluation table/figure, plus
the extension studies DESIGN.md calls out.

Each module exposes ``run(...) -> <Figure>Result`` whose ``render()``
prints the same rows/series the paper reports. ``runner.EXPERIMENTS``
registers them by name, and ``runner.main()`` (the ``newton-repro``
console script) regenerates everything.
"""
