"""Secret-key-rate lower bounds for modulator-free decoy-state BB84
transmitters with residual intensity-modulator leakage."""

from .driver import (KeyRateReport, OptimizerSettings, ProtocolConfig, binary_entropy,
                     config_from_dict, config_to_dict, key_rate, optimize_point, sweep)
from .lp import InfeasibleProgramError
from .passive import (EmptyRegionError, PassiveParams, RegionGeometry, RegionSpec,
                      TargetPoint)

__all__ = [
    "KeyRateReport", "OptimizerSettings", "ProtocolConfig", "binary_entropy",
    "config_from_dict", "config_to_dict", "key_rate", "optimize_point", "sweep",
    "InfeasibleProgramError", "EmptyRegionError", "PassiveParams", "RegionGeometry", "RegionSpec", "TargetPoint",
]

__version__ = "0.1.0"
