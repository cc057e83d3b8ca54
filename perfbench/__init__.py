"""Seeded end-to-end and per-layer benchmark of the ipfem package.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  See ``perfbench/README.md``.
"""
