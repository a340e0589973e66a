"""Symmetry classes of a direct sum of irreducibles, by folding clips."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .clips import clips_sets
from .groups import (
    ClassSet,
    Context,
    O3_FULL,
    SO3,
    UnsupportedClipsError,
    full_class,
    type_ii,
)
from .irreps import HarmonicSum, isotropy_irrep_o3, isotropy_irrep_so3


class MinusOneAction(Enum):
    MINUS_ID = "minus_id"
    PLUS_ID = "plus_id"
    MIXED = "mixed"
    NOT_APPLICABLE = "not_applicable"


class RepSpec(NamedTuple):
    """A representation given by its harmonic content in a fixed context."""

    context: Context
    content: HarmonicSum


def minus_one_action(spec: RepSpec) -> MinusOneAction:
    """Census of the sign by which ``-I`` acts across the summands."""
    if spec.context is Context.SO3:
        return MinusOneAction.NOT_APPLICABLE
    signs = {label.minus_one_sign() for label, _ in spec.content.terms}
    if len(signs) > 1:
        return MinusOneAction.MIXED
    if signs == {1} or not signs:
        return MinusOneAction.PLUS_ID
    return MinusOneAction.MINUS_ID


def _label_classes_o3(label) -> ClassSet:
    if label.n == 0:
        # One-dimensional det-twisted space: nonzero vectors are fixed
        # exactly by the rotations.
        return ClassSet([SO3, O3_FULL])
    return isotropy_irrep_o3(label)


def _fold(per_label, ctx: Context) -> ClassSet:
    acc = None
    for classes, mult in per_label:
        for _ in range(mult):
            if acc is None:
                acc = classes
                continue
            # Each step is a function of acc alone, so once a step returns
            # acc unchanged every further copy of this label does too.
            step = clips_sets(ctx, acc, classes)
            if step == acc:
                break
            acc = step
    return acc


def isotropy_classes(spec: RepSpec) -> ClassSet:
    """All isotropy classes of the representation described by ``spec``."""
    ctx = spec.context
    if not spec.content:
        return ClassSet([full_class(ctx)])
    if ctx is Context.SO3:
        per = [
            (isotropy_irrep_so3(label.n), mult)
            for label, mult in spec.content.terms
        ]
        return _fold(per, Context.SO3)
    action = minus_one_action(spec)
    if action is MinusOneAction.MIXED:
        raise UnsupportedClipsError(
            "unsupported: -I acts with mixed sign across the summands, which "
            "would require clips rules for type II classes"
        )
    if action is MinusOneAction.PLUS_ID:
        # -I fixes every vector, so every isotropy group contains -I: compute
        # in SO(3) and lift K to K u (-K).
        so3 = isotropy_classes(RepSpec(Context.SO3, spec.content))
        return ClassSet([type_ii(k) for k in so3])
    per = [(_label_classes_o3(label), mult) for label, mult in spec.content.terms]
    return _fold(per, Context.O3)
