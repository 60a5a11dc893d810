"""Joint-level muscle fatigue modulation for motion sequences.

Pipeline: learned inverse dynamics turns joint angles into torques, a
three-compartment fatigue simulator attenuates them through the
residual-capacity factor, and learned forward dynamics turns the fatigued
torques back into joint angles. A physics-informed network of the
compartment pools (``fatigue_pinn``, the ``train-pinn`` command) reproduces
the paper's Fatigue-PINN; no pipeline path uses it.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    DataFormatError,
    DegenerateChannelError,
    FatigueMotionError,
    NumericError,
    ParameterError,
    ShapeError,
    SplitError,
)
