"""Brute-force matrix-group oracle for the clips rules."""

from .classify import classify, rotation_axis_angle
from .realize import MATCH_TOL, ORTHO_TOL, MatrixGroup, intersect, realize, rotation
from .verify import (
    VerificationReport,
    alignment_frames,
    characteristic_axes,
    find_witness,
    random_rotations,
    rotation_between,
    verify_clips,
)

__all__ = [
    "MATCH_TOL",
    "ORTHO_TOL",
    "MatrixGroup",
    "VerificationReport",
    "alignment_frames",
    "characteristic_axes",
    "classify",
    "find_witness",
    "intersect",
    "random_rotations",
    "realize",
    "rotation",
    "rotation_axis_angle",
    "rotation_between",
    "verify_clips",
]
