import contextlib
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from umdobench import (
    BlockSystem,
    ProblemConfig,
    ScalableProblem,
    UncertaintyModel,
    assemble,
    generate,
)


@pytest.fixture
def small_config():
    """Two disciplines, one shared and two local variables each, three
    coupling outputs each: the smallest configuration exercising all of the
    block structure."""
    return ProblemConfig(
        n_disciplines=2,
        d_shared=1,
        d_local=(2, 2),
        p_coupling=(3, 3),
        seed=42,
    )


def make_toy_problem(a=(1.0,), d_shared=((1.0,),), d_local=((1.0,),), t=0.0):
    """Single-discipline problem with hand-chosen 1x1 blocks: y = a - ds*x0 - dl*x1."""
    config = ProblemConfig(
        n_disciplines=1,
        d_shared=1,
        d_local=(1,),
        p_coupling=(len(a),),
        seed=0,
    )
    return ScalableProblem(
        config=config,
        a=np.asarray(a, dtype=float),
        D_shared=(np.asarray(d_shared, dtype=float),),
        D_local=(np.asarray(d_local, dtype=float),),
        C_blocks={},
        t=t,
    )


def non_contracting_copy(problem, k=10.0):
    """``problem`` with its last discipline's outputs scaled by k.

    With S diagonal, k on the last block, the coupling equations become
    ``(S C S^-1) (S y) = S (a - D x)``: the iteration matrix keeps its
    spectrum, so the sweeps converge at the original rate, but its row sums
    in the last block grow by k. On the generated problems the tests use
    this makes ``||I - C||_inf >= 1``, as only a hand-edited file can, so a
    fixed-point solve that needs more than 30 sweeps stops unconverged at
    sweep 30.
    """
    n = problem.config.n_disciplines
    s = np.ones(n)
    s[-1] = k
    a = problem.a.copy()
    a[-problem.config.p_coupling[-1]:] *= k
    return dataclasses.replace(
        problem,
        a=a,
        D_shared=tuple(s_i * block for s_i, block in zip(s, problem.D_shared)),
        D_local=tuple(s_i * block for s_i, block in zip(s, problem.D_local)),
        C_blocks={(i, j): block * s[i] / s[j] for (i, j), block in problem.C_blocks.items()},
    )


def rank_deficient_system(seed=0):
    """Two disciplines with one coupling output each against two local
    design variables each, so the design map loses rank.

    ProblemConfig refuses that shape, so the system keeps the first output
    of each discipline of a generated ``(2, 1, (2, 2), (3, 3))`` instance:
    its coupling rows only lose terms, and it still contracts.
    """
    system = assemble(generate(ProblemConfig(2, 1, (2, 2), (3, 3), seed=seed)))
    rows = [b.start for b in system.block_slices]
    return BlockSystem(
        C=system.C[np.ix_(rows, rows)],
        D=system.D[rows],
        a=system.a[rows],
        p_coupling=(1, 1),
        d_shared=system.d_shared,
    )


@contextlib.contextmanager
def residual_floor(floor=1e-12):
    """Within the block, no measured coupling residual falls below ``floor``.

    A tolerance below round-off rarely makes a fixed-point solve fail: most
    solves reach an exact fixed point of the rounded sweep, residual 0. With
    the floor, a tolerance under it is out of reach, so every solve on a
    system with ``||I - C||_inf < 1`` sweeps until its derived budget is
    spent, and one on any other system stops at sweep 30.
    """
    import umdobench.mda as mda

    norms = mda._row_norms
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mda, "_row_norms", lambda R: np.maximum(norms(R), floor))
        yield
