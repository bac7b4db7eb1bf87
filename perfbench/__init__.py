"""Benchmark of the magicswitch package; run ``python3 -m perfbench --help``."""
