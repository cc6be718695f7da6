"""Layer names of the traced run: one per library module, in report order.

Imports neither numpy nor monoclt, so that the launcher can use it.
"""

LAYERS = ("measures", "transforms", "convolve", "clt", "ergodic", "cli")
