"""The estimator pattern across the problem family, not only seed 70.

Criterion 6 checks 13 properties on one instance. Eleven of them held on
every instance of seeded sweeps: seeds 40-79 of the default shape (2
disciplines x 3 outputs), and seeds 60-69 of that shape at coupling
strength 0.9 and of 3 disciplines x 5 outputs at strengths 0.5 and 0.9.
This test asserts them on 12 of those instances, with 10 MC repetitions
each. Taylor's ``df`` is the omitted noise energy ``E / f*``, an instance
constant that spans 0.07-0.99 % over the default-shape sweep, so the two
checks that compare it (``df`` <= 0.1 % and below MC's ``df``) are left to
criterion 6's seed 70.

A Taylor std computed without its square root fails every instance here,
and a reference QP whose margin uses 1.25 kappa fails half of them.
"""

import pytest

from umdobench.bench import run_benchmark
from umdobench.problem import ProblemConfig, UncertaintyModel, generate, tune_feasibility

# (disciplines, outputs per discipline, coupling strength, seeds). The
# strength-0.9 systems need the most coupling sweeps, so they get the
# fewest seeds.
_FAMILY = [
    (2, 3, 0.5, (40, 47, 53, 59, 66, 79)),
    (2, 3, 0.9, (60, 67)),
    (3, 5, 0.5, (61, 64, 68)),
    (3, 5, 0.9, (62,)),
]
_REPETITIONS = 10


def _instance(n, p_block, strength, seed):
    config = ProblemConfig(
        n_disciplines=n,
        d_shared=1,
        d_local=(2,) * n,
        p_coupling=(p_block,) * n,
        coupling_strength=strength,
        seed=seed,
    )
    problem = generate(config)
    problem.uncertainty = UncertaintyModel.isotropic(config.p_coupling, 0.01)
    tune_feasibility(problem, quantile_seed=seed + 1)
    return problem


@pytest.mark.parametrize(
    "n, p_block, strength, seed",
    [(n, p, s, seed) for n, p, s, seeds in _FAMILY for seed in seeds],
    ids=lambda v: str(v),
)
def test_estimator_pattern_holds_across_the_family(n, p_block, strength, seed):
    report = run_benchmark(
        _instance(n, p_block, strength, seed),
        estimators=("mc:200", "taylor"),
        repetitions=_REPETITIONS,
        base_seed=1000,
    )
    rows = {s.estimator: s for s in report.estimators}
    taylor, mc = rows["taylor"], rows["mc:200"]
    assert not report.failures
    assert mc.repetitions == _REPETITIONS
    assert taylor.mean_dx_pct <= 0.5 and taylor.mean_dg_pct <= 0.5
    assert max(mc.mean_dx_pct, mc.mean_df_pct, mc.mean_dg_pct) <= 2.0
    assert min(mc.std_dx_pct, mc.std_df_pct, mc.std_dg_pct) > 0.0
    assert taylor.mean_dx_pct < mc.mean_dx_pct
