"""Thruster-assisted quadruped locomotion stack: centroidal MPC over a dense
QP, trot gait planning, and a deterministic rigid-body scenario simulator."""

import os

# one OpenBLAS thread, over the caller's value, before numpy loads it: a threaded LU rounds differently
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .gait import GaitConfig
from .mpc import Command, MpcConfig, MpcController
from .qp import QpProblem, QpSolution
from .robot import RobotParams
from .sim import FailureEvent, Scenario, SimLog, Terrain

__all__ = [
    "Command",
    "FailureEvent",
    "GaitConfig",
    "MpcConfig",
    "MpcController",
    "QpProblem",
    "QpSolution",
    "RobotParams",
    "Scenario",
    "SimLog",
    "Terrain",
]
