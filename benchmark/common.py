"""Workload menus and configurations shared by the benchmark and the
reference generator.

The benchmark imports ``leakyqkd`` from the ``src/`` directory of the
checkout it sits in, never from an installed copy, so that it measures
the code next to it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"


def import_leakyqkd():
    """Import the package from ``<checkout>/src``; exit 2 if it is not there."""
    if not (SRC / "leakyqkd" / "__init__.py").is_file():
        sys.exit(f"benchmark: no leakyqkd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import leakyqkd

    if Path(leakyqkd.__file__).resolve().parent != SRC / "leakyqkd":
        sys.exit(f"benchmark: imported leakyqkd from {leakyqkd.__file__}, not {SRC}")
    return leakyqkd


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# Every grid point a seed can select; the reference table covers all of
# them.  The known failing points are in every selection, and so is the
# point with the largest error, so that rate_rel_err (a maximum over
# points) does not depend on the seed.
#
# passive-sweep: 75 km has the false-infeasible refined Z-yield LP at 48
# nodes, 100 km the largest 48-node rate error (0.45 %; 25 and 50 km are
# near 7e-5).  The seed picks nothing here: a third point would cost 12 s
# a run, which the run budget gives to oil-optimize instead.
SWEEP_ATT_DB = 120.0
SWEEP_KM = (75.0, 100.0)

# passive-optimize, one point: the optimizer's shortfall against the reference optimum
# differs by ~20 % between neighbouring distances (40 km: 5.8e-3,
# 50 km: 6.9e-3), which would make rate_rel_err depend on the seed.
POPT_KM = 50.0
POPT_ATT_DB = 120.0

# oil-optimize: 150 and 200 km at 30 dB: vanishing test-basis yield; 100 km at 30 dB:
# the optimizer's largest shortfall (15 % of the reference optimum)
OIL_ATT_DB = (30.0, 120.0)
OIL_ALWAYS_KM = (100.0, 150.0, 200.0)
OIL_CHOICE_KM = (25.0, 50.0, 75.0)
OIL_PICK = 1


def passive_config(driver, **overrides):
    """The refined passive analysis at the default source and 48 nodes."""
    return driver.ProtocolConfig(transmitter="passive", analysis="refined", **overrides)


def oil_config(driver, **overrides):
    return driver.ProtocolConfig(transmitter="oil", **overrides)


def point_key(distance_km: float, att_db: float) -> str:
    return f"{distance_km:g}km/{att_db:g}dB"
