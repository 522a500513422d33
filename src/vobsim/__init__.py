"""Virtual observer simulation toolkit.

Nonlinear spatiotemporal contrast sensitivity (linear filtering,
probability-map, and Monte Carlo perception methods) applied to 3D image
stacks, scored by a multi-slice channelized Hotelling observer with
one-shot MRMC statistics.
"""

__version__ = "0.1.0"
