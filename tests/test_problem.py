"""Tests for problem generation, assembly, tuning and serialization."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from umdobench import (
    BlockSystem,
    CapacityError,
    ProblemConfig,
    ProblemFormatError,
    ProblemVersionError,
    ScalableProblem,
    UncertaintyModel,
    assemble,
    deserialize,
    generate,
    problem_digest,
    serialize,
    tune_feasibility,
)
from umdobench.qp import check_positive_definite, reduce_deterministic
from umdobench.problem import _CHUNK as CHUNK, _MIN_KERNEL as MIN_KERNEL, _emit
from conftest import make_toy_problem
from oracles import draw_reference_instance


# --- generation ---------------------------------------------------------------


def test_generate_matches_documented_prng_contract():
    # The oracle re-derives every array from flat PCG64 draws in the
    # documented order and applies the documented rescaling itself.
    configs = [
        ProblemConfig(2, 1, (2, 2), (3, 3), seed=0),
        ProblemConfig(3, 2, (1, 3, 2), (2, 4, 3), coupling_strength=0.3, seed=7),
        ProblemConfig(1, 1, (2,), (3,), seed=11),
    ]
    for base in configs:
        for seed in range(10):
            config = ProblemConfig(
                base.n_disciplines,
                base.d_shared,
                base.d_local,
                base.p_coupling,
                coupling_strength=base.coupling_strength,
                seed=seed,
            )
            problem = generate(config)
            a, D_shared, D_local, C_blocks = draw_reference_instance(config)
            assert np.array_equal(problem.a, a)
            for got, want in zip(problem.D_shared, D_shared):
                assert np.array_equal(got, want)
            for got, want in zip(problem.D_local, D_local):
                assert np.array_equal(got, want)
            assert set(problem.C_blocks) == set(C_blocks)
            for key in C_blocks:
                assert np.allclose(
                    problem.C_blocks[key], C_blocks[key], rtol=0, atol=0
                )


def test_generate_is_deterministic_and_seed_sensitive(small_config):
    d1 = problem_digest(generate(small_config))
    d2 = problem_digest(generate(small_config))
    other = ProblemConfig(
        small_config.n_disciplines,
        small_config.d_shared,
        small_config.d_local,
        small_config.p_coupling,
        seed=small_config.seed + 1,
    )
    assert d1 == d2
    assert d1 != problem_digest(generate(other))


def test_generated_coupling_is_strictly_diagonally_dominant():
    for seed in range(20):
        config = ProblemConfig(3, 1, (1, 2, 1), (2, 3, 2), seed=seed)
        system = assemble(generate(config))
        off = system.C - np.diag(np.diag(system.C))
        row_sums = np.abs(off).sum(axis=1)
        assert np.all(np.diag(system.C) == 1.0)
        assert np.all(row_sums <= config.coupling_strength + 1e-12)


def test_generate_capacity_guard():
    # p (p + d) = 8193 * 8195 is just above MAX_MATRIX_ELEMENTS = 2**26; the
    # guard raises before anything is drawn.
    with pytest.raises(CapacityError):
        generate(ProblemConfig(1, 1, (1,), (8193,)))


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(0, 1, (), (), seed=0)
    with pytest.raises(ValueError):
        ProblemConfig(2, 1, (1,), (1, 1), seed=0)
    with pytest.raises(ValueError):
        ProblemConfig(1, 1, (0,), (1,), seed=0)
    with pytest.raises(ValueError):
        ProblemConfig(1, 1, (1,), (1,), coupling_strength=1.0)
    # Sweeps grow as 1 / (1 - coupling_strength); the family stops at 0.99.
    assert ProblemConfig(1, 1, (1,), (1,), coupling_strength=0.99).coupling_strength == 0.99
    with pytest.raises(ValueError):
        ProblemConfig(1, 1, (1,), (1,), coupling_strength=0.9999999)
    with pytest.raises(ValueError):
        ProblemConfig(1, 1, (1,), (1,), feasibility_level=0.0)


def test_well_posedness_predicate():
    # A discipline with fewer outputs than local variables leaves the reduced
    # Hessian singular, so the config is refused, and a file that holds it.
    with pytest.raises(ValueError, match=r"p_coupling\[0\] = 1 is below d_local\[0\] = 2"):
        ProblemConfig(2, 1, (2, 2), (1, 3))
    doc = json.loads(serialize(generate(ProblemConfig(2, 1, (2, 2), (3, 3)))))
    doc["config"]["p_coupling"] = [1, 3]
    with pytest.raises(ProblemFormatError, match="below d_local") as err:
        deserialize(json.dumps(doc))
    assert err.value.field == "config"
    # Fewer outputs than design variables in total loses no rank: the shared
    # variables' own squares in the objective make Q positive definite.
    for config in (
        ProblemConfig(2, 4, (2, 2), (3, 3)),
        ProblemConfig(3, 10, (3, 3, 3), (3, 3, 3)),
    ):
        assert config.p < config.d
        for seed in range(5):
            system = assemble(generate(dataclasses.replace(config, seed=seed)))
            is_pd, lam = check_positive_definite(reduce_deterministic(system, 0.0))
            assert is_pd and lam > 0, (config, seed)


# --- assembly and the exact linear map -----------------------------------------


def test_assemble_block_layout(small_config):
    problem = generate(small_config)
    system = assemble(problem)
    p0, p1 = small_config.p_coupling

    assert np.array_equal(system.C[:p0, :p0], np.eye(p0))
    assert np.array_equal(system.C[p0:, p0:], np.eye(p1))
    assert np.array_equal(system.C[:p0, p0:], -problem.C_blocks[(0, 1)])
    assert np.array_equal(system.C[p0:, :p0], -problem.C_blocks[(1, 0)])

    assert np.array_equal(system.D[:p0, :1], problem.D_shared[0])
    assert np.array_equal(system.D[p0:, :1], problem.D_shared[1])
    assert np.array_equal(system.D[:p0, 1:3], problem.D_local[0])
    assert np.array_equal(system.D[p0:, 3:5], problem.D_local[1])
    # Local blocks of other disciplines stay zero.
    assert np.all(system.D[:p0, 3:5] == 0.0)
    assert np.all(system.D[p0:, 1:3] == 0.0)
    assert system.d_shared == small_config.d_shared


def test_linear_map_on_hand_solved_coupling():
    # y1 = 1 + 0.5 y2 and y2 = 1 + 0.5 y1 have the unique solution (2, 2).
    system = BlockSystem(
        C=np.array([[1.0, -0.5], [-0.5, 1.0]]),
        D=np.zeros((2, 2)),
        a=np.array([1.0, 1.0]),
        p_coupling=(1, 1),
        d_shared=1,
    )
    alpha, beta, P = system.linear_map
    assert np.allclose(alpha, [2.0, 2.0], atol=1e-14)
    assert np.allclose(beta, 0.0)
    assert np.allclose(P, np.array([[4, 2], [2, 4]]) / 3.0, atol=1e-14)


def test_linear_map_satisfies_coupling_equations(small_config):
    system = assemble(generate(small_config))
    alpha, beta, P = system.linear_map
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.random(system.d)
        u = rng.standard_normal(system.p)
        y = alpha + beta @ x + P @ u
        assert np.allclose(system.C @ y, system.a - system.D @ x + u, atol=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        ProblemConfig(2, 1, (2, 2), (3, 3), seed=70),  # p = 6
        ProblemConfig(4, 1, (2,) * 4, (100,) * 4, seed=5),  # p = 400
        ProblemConfig(20, 1, (5,) * 20, (30,) * 20, seed=3),  # p = 600
    ],
    ids=["p6", "p400", "p600"],
)
def test_linear_map_beta_is_bitwise_the_negated_inverse_times_d(config):
    # beta negates the p x d product; negating P first, a p x p temporary,
    # gives the same bits, since rounding is symmetric in sign.
    system = assemble(generate(config))
    _, beta, P = system.linear_map
    assert beta.tobytes() == (-P @ system.D).tobytes()


def test_singular_coupling_detected():
    system = BlockSystem(
        C=np.array([[1.0, -1.0], [-1.0, 1.0]]),
        D=np.zeros((2, 2)),
        a=np.ones(2),
        p_coupling=(1, 1),
        d_shared=1,
    )
    from umdobench import SingularCouplingError

    with pytest.raises(SingularCouplingError):
        system.linear_map


# --- feasibility tuning --------------------------------------------------------


def test_tuning_on_analytic_median_toy():
    # y = 1 - x0 - x1 on the unit square has median exactly 0, so tuning at
    # feasibility level one half must land near 0.
    problem = make_toy_problem()
    t = tune_feasibility(problem, n_samples=10_000, quantile_seed=5)
    assert problem.t == t
    assert abs(t) < 0.02


def test_tuning_hits_target_fraction():
    for level in (0.3, 0.5, 0.8):
        config = ProblemConfig(
            2, 1, (2, 2), (3, 3), feasibility_level=level, seed=4
        )
        problem = generate(config)
        tune_feasibility(problem, quantile_seed=9)
        system = assemble(problem)
        alpha, beta, _ = system.linear_map
        rng = np.random.default_rng(12345)
        X = rng.random((200_000, system.d))
        frac = np.mean((alpha[None, :] + X @ beta.T).min(axis=1) >= problem.t)
        assert abs(frac - level) < 0.015


def test_tuning_quantile_uses_linear_interpolation():
    # Re-derive the threshold by sorting the minima and interpolating order
    # statistics by hand.
    problem = make_toy_problem()
    n, q_seed, level = 501, 77, problem.config.feasibility_level
    t = tune_feasibility(problem, n_samples=n, quantile_seed=q_seed)

    X = np.random.default_rng(q_seed).random((n, 2))
    mins = np.sort(1.0 - X.sum(axis=1))
    pos = (1.0 - level) * (n - 1)
    k, frac = int(np.floor(pos)), pos - np.floor(pos)
    expected = mins[k] * (1 - frac) + mins[k + 1] * frac
    assert t == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "config",
    [
        ProblemConfig(2, 1, (2, 2), (3, 3), seed=3),  # p = 6, d = 5
        ProblemConfig(3, 2, (4, 4, 4), (10, 10, 11), feasibility_level=0.3, seed=8),  # p = 31, d = 14
        ProblemConfig(4, 1, (2,) * 4, (100,) * 4, seed=5),  # p = 400, d = 9
        ProblemConfig(20, 1, (5,) * 20, (30,) * 20, feasibility_level=0.7, seed=3),  # p = 600, d = 101
    ],
    ids=["p6", "p31", "p400", "p600"],
)
def test_streamed_tuning_is_bitwise_one_shot(config):
    # The blocked sample must give exactly the threshold of mapping the whole
    # sample in one product, for one-block and many-block splits alike.
    problem = generate(config)
    alpha, beta, _ = assemble(problem).linear_map
    for n in (2, 501, 10_000, 10_001):
        t = tune_feasibility(problem, n_samples=n, quantile_seed=n)
        X = np.random.default_rng(n).random((n, config.d))
        expected = np.quantile((alpha + X @ beta.T).min(axis=1), 1 - config.feasibility_level)
        assert t.hex() == float(expected).hex(), (config.p, n)


def test_tuning_memory_does_not_scale_with_sample_size():
    # One n_samples x p product at p = 600 would alone take 46 MiB.
    config = ProblemConfig(20, 1, (5,) * 20, (30,) * 20, seed=3)
    problem = generate(config)
    tracemalloc.start()
    try:
        tune_feasibility(problem, n_samples=10_000, quantile_seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_tuning_seed_independent_of_generation_seed(small_config):
    problem = generate(small_config)
    t1 = tune_feasibility(problem, quantile_seed=1)
    t2 = tune_feasibility(problem, quantile_seed=2)
    t1_again = tune_feasibility(problem, quantile_seed=1)
    assert t1 != t2
    assert t1 == t1_again


# --- serialization --------------------------------------------------------------


def test_roundtrip_is_bitwise(small_config):
    problem = generate(small_config)
    tune_feasibility(problem)
    problem.uncertainty = UncertaintyModel.isotropic(small_config.p_coupling, 0.01)
    restored = deserialize(serialize(problem))
    assert restored == problem
    assert problem_digest(restored) == problem_digest(problem)
    assert np.array_equal(restored.a, problem.a)
    assert restored.t == problem.t
    for key in problem.C_blocks:
        assert np.array_equal(restored.C_blocks[key], problem.C_blocks[key])
    assert np.array_equal(
        restored.uncertainty.sigma, problem.uncertainty.sigma
    )

    # Equality is bitwise: a zero of the other sign, a threshold one ulp off
    # and a missing noise model each make an otherwise equal copy differ.
    positive, negative = deserialize(serialize(problem)), deserialize(serialize(problem))
    positive.a[1], negative.a[1] = 0.0, -0.0
    assert positive != negative
    restored.t = float(np.nextafter(problem.t, np.inf))
    assert restored != problem
    noiseless, zero_noise = deserialize(serialize(problem)), deserialize(serialize(problem))
    noiseless.uncertainty = None
    zero_noise.uncertainty = UncertaintyModel.isotropic(small_config.p_coupling, 0.0)
    assert noiseless != zero_noise
    assert noiseless == deserialize(serialize(noiseless))


def test_serialization_uses_17_significant_digits():
    problem = make_toy_problem(a=(1.0 / 3.0,))
    assert b"0.33333333333333331" in serialize(problem)


# sha256 of the file written for `small_config`, tuned with quantile seed 0 and
# isotropic noise of standard deviation 0.01. Any byte change to the file
# format changes it.
GOLDEN_SMALL_DIGEST = "a864ddd2b0eb8729e259ec95df406a51c5f022c2b8211fae572f8c6dcf85011b"


def test_file_format_is_pinned(small_config):
    problem = generate(small_config)
    tune_feasibility(problem)
    problem.uncertainty = UncertaintyModel.isotropic(small_config.p_coupling, 0.01)
    assert hashlib.sha256(serialize(problem)).hexdigest() == GOLDEN_SMALL_DIGEST


def _format_one(x):
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def _per_element(arr):
    if arr.ndim == 1:
        return "[" + ", ".join(_format_one(x) for x in arr) + "]"
    return "[" + ", ".join(_per_element(row) for row in arr) + "]"


def test_array_format_matches_per_element_format():
    special = np.array([
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1.0 / 3.0,
        1e16, 1e17, -1e17, 1.7976931348623157e308, -1.7976931348623157e308,
    ])
    bits = np.random.default_rng(7).integers(0, 2**64, size=600, dtype=np.uint64)
    random = bits.view(np.float64)
    values = np.concatenate([special, random[np.isfinite(random)][:480]])
    assert values.size == 492
    shapes = [(values.size,), (values.size, 1), (12, 41), (41, 12), (0, 3), (0,)]
    for shape in shapes:
        arr = values[: int(np.prod(shape))].reshape(shape)
        text = _emit(arr).decode("ascii")
        assert text == _per_element(arr), shape
        if arr.size:
            restored = np.array(json.loads(text))
            assert np.array_equal(restored, arr)
            assert np.array_equal(np.signbit(restored), np.signbit(arr))
    assert _emit(special).decode("ascii").startswith("[-0.0, 0, 4.9406564584124654e-324, ")


def _kernel_inputs():
    """Values whose 17-digit text is easy to get wrong: random bit patterns,
    neighbours of every decade, exact ties, subnormals, extremes, zeros."""
    rng = np.random.default_rng(16)
    bits = rng.integers(0, 2**64, size=12_000, dtype=np.uint64).view(np.float64)
    decades = 10.0 ** np.arange(-8, 19)
    near = [decades]
    for direction in (np.inf, -np.inf):
        x = decades
        for _ in range(3):
            x = np.nextafter(x, direction)
            near.append(x)
    # k/4 in [1e15, 2**50) and k/8 in [1e14, 2**47) sit exactly half-way
    # between two 17-digit decimals when k is odd.
    ties = [
        rng.integers(4 * 10**15, 2**52, size=2_000) / 4.0,
        rng.integers(8 * 10**14, 2**50, size=2_000) / 8.0,
    ]
    tiny = np.finfo(float).tiny
    special = np.array([
        5e-324, tiny, np.nextafter(tiny, 0.0), np.finfo(float).max,
        1e-5, 1e-6, 1e-7, 0.5, 1.0, 1.0 / 3.0, 2.0**53, 1e17 - 16.0,
    ])
    values = np.concatenate([bits[np.isfinite(bits)], *near, *ties, special])
    values = values[values != 0.0]
    values[rng.random(values.size) < 0.5] *= -1.0
    rng.shuffle(values)
    return np.concatenate([[0.0, -0.0], values])


def _document_text(doc):
    return "[" + ", ".join(_per_element(arr) for arr in doc) + "]"


def _assert_same_text(got, want):
    # A plain == would make pytest diff two texts of up to 200 kB.
    same = got == want
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert same, f"first difference at {at}: {got[at - 30 : at + 30]!r} != {want[at - 30 : at + 30]!r}"


@pytest.mark.parametrize(
    "size",
    [2, MIN_KERNEL - 1, MIN_KERNEL, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + MIN_KERNEL // 2],
)
def test_array_kernel_matches_per_element_format(size):
    values = _kernel_inputs()
    # An isotropic covariance block: 99 % zeros, the kernel's zero rows
    # between value rows, with a few zeros and values negated.
    iso = (1e-4 * np.eye(100)).ravel()
    iso[np.random.default_rng(26).random(iso.size) < 0.02] *= -1.0
    assert np.count_nonzero(iso) == 100
    # The head starts with 0.0 and -0.0, so every chunk of it takes the
    # kernel; the tail holds no zero, and its chunks below MIN_KERNEL values
    # take the %-format, as do the other parts below that size that hold no
    # -0.0.
    parts = (values[:size], values[-size:], iso[:size], np.zeros(size), np.full(size, -0.0))
    for part in parts:
        _assert_same_text(_emit(part).decode("ascii"), _per_element(part))
        # The same values cut into arrays of the shapes serialize writes, so
        # that full chunks and the %-format tail cross arrays.
        r = size // 7
        cut = 2 * r + (size - 2 * r) // 5 * 5
        doc = [
            part[:r],
            part[r : 2 * r].reshape(r, 1),
            part[2 * r : cut].reshape(-1, 5),
            np.zeros((0, 3)),
            part[cut:],
        ]
        _assert_same_text(_emit(doc).decode("ascii"), _document_text(doc))
    # -0.0 before each separator code: inside a row, at the end of a row and
    # at the end of an array, among zeros and among values.
    for fill in (np.zeros(size), values[-size:]):
        grid = np.resize(fill, max(size // 5, 1) * 5).reshape(-1, 5)
        grid[0, 0] = grid[0, -1] = grid[-1, -1] = -0.0
        doc = [grid, grid[0]]
        _assert_same_text(_emit(doc).decode("ascii"), _document_text(doc))


def test_array_kernel_covers_every_exponent_and_the_fallback():
    values = _kernel_inputs()
    text = _emit(values).decode("ascii")
    _assert_same_text(text, _per_element(values))
    assert text.startswith("[0, -0.0, ")
    for token in ("e-05", "e-06", "e-07", "e+17", "e-308", "e-324", "e+308"):
        assert token in text


_DIGEST_CONFIGS = {
    6: ProblemConfig(2, 1, (2, 2), (3, 3), seed=70),
    60: ProblemConfig(3, 1, (2, 2, 2), (20, 20, 20), seed=60),
    400: ProblemConfig(4, 1, (2,) * 4, (100,) * 4, seed=5),
    600: ProblemConfig(20, 1, (5,) * 20, (30,) * 20, seed=3),
}


def _tuned_with_noise(config):
    problem = generate(config)
    problem.uncertainty = UncertaintyModel.isotropic(config.p_coupling, 0.01)
    tune_feasibility(problem, quantile_seed=config.seed + 1)
    return problem


@pytest.mark.parametrize("p", sorted(_DIGEST_CONFIGS))
def test_problem_digest_is_sha256_of_the_file(p):
    problem = _tuned_with_noise(_DIGEST_CONFIGS[p])
    assert problem.config.p == p
    blob = serialize(problem)
    assert problem_digest(problem) == hashlib.sha256(blob).hexdigest()
    assert deserialize(blob) == problem


def test_problem_digest_streams_the_file():
    # The digest never holds the 8.2 MB file; hashing the whole text at once
    # peaks at 23.5 MiB here.
    problem = _tuned_with_noise(_DIGEST_CONFIGS[600])
    problem_digest(problem)
    tracemalloc.start()
    try:
        problem_digest(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_serialize_writes_one_buffer():
    # The pieces go into one buffer as they are formatted: the peak is the
    # buffer, with its growth slack, plus one chunk's working set (1.2x the
    # 14.6 MB file here). Joining the held pieces peaks at twice the file.
    config = ProblemConfig(20, 1, (2,) * 20, (40,) * 20, seed=3)
    problem = generate(config)
    problem.uncertainty = UncertaintyModel.isotropic(config.p_coupling, 0.01)
    serialize(problem)
    tracemalloc.start()
    try:
        blob = serialize(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blob) > 10**7
    assert peak < 1.3 * len(blob)
    assert hashlib.sha256(blob).hexdigest() == problem_digest(problem)


def test_negative_zero_roundtrips_bitwise(small_config):
    problem = generate(small_config)
    problem.uncertainty = UncertaintyModel.isotropic(small_config.p_coupling, 0.01)
    problem.a[1] = -0.0
    problem.C_blocks[(1, 0)][2, 0] = -0.0
    problem.uncertainty.sigma_blocks[1][0, 1] = -0.0
    problem.t = -0.0
    restored = deserialize(serialize(problem))
    assert restored == problem
    assert np.signbit(restored.a[1])
    assert np.signbit(restored.C_blocks[(1, 0)][2, 0])
    assert np.signbit(restored.uncertainty.sigma_blocks[1][0, 1])
    assert np.signbit(restored.t)
    assert np.array_equal(np.signbit(restored.a), np.signbit(problem.a))


def _poison_a(p, v):
    p.a[1] = v


def _poison_c_block(p, v):
    p.C_blocks[(1, 0)][2, 0] = v


def _poison_d_local(p, v):
    p.D_local[1][0, 1] = v


def _poison_sigma(p, v):
    p.uncertainty.sigma_blocks[1][2, 2] = v


def _poison_t(p, v):
    p.t = v


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "poison",
    [_poison_a, _poison_c_block, _poison_d_local, _poison_sigma, _poison_t],
    ids=["a", "C_blocks", "D_local", "sigma_blocks", "t"],
)
def test_serialize_rejects_non_finite_values(small_config, poison, value):
    problem = generate(small_config)
    problem.uncertainty = UncertaintyModel.isotropic(small_config.p_coupling, 0.01)
    serialize(problem)
    poison(problem, value)
    with pytest.raises(ValueError, match="cannot serialize non-finite value"):
        serialize(problem)


def test_deserialize_rejects_bad_inputs(small_config):
    payload = serialize(generate(small_config))

    with pytest.raises(ProblemFormatError):
        deserialize(payload[: len(payload) // 2])

    bumped = payload.replace(b'{"version": 1', b'{"version": 99', 1)
    with pytest.raises(ProblemVersionError):
        deserialize(bumped)

    doc = json.loads(payload)
    del doc["a"]
    with pytest.raises(ProblemFormatError) as err:
        deserialize(json.dumps(doc))
    assert err.value.field == "a"

    doc = json.loads(payload)
    doc["D_local"][1] = [[1.0]]
    with pytest.raises(ProblemFormatError) as err:
        deserialize(json.dumps(doc))
    assert "D_local[1]" in str(err.value)

    doc = json.loads(payload)
    del doc["config"]["seed"]
    with pytest.raises(ProblemFormatError):
        deserialize(json.dumps(doc))

    # Malformed values raise the typed error and name their field.
    def non_numeric_a(doc):
        doc["a"][0] = "x"

    def bad_index(doc):
        doc["C_blocks"][0][0] = "a"

    def set_config(key, value):
        return lambda doc: doc["config"].update({key: value})

    def set_index(position, value):
        def corrupt(doc):
            doc["C_blocks"][0][position] = value

        return corrupt

    def infinite_a(doc):
        doc["a"][0] = float("inf")

    def infinite_c_block(doc):
        assert doc["C_blocks"][0][:2] == [0, 1]
        doc["C_blocks"][0][2][0][0] = -float("inf")

    def nan_sigma_block(doc):
        blocks = [np.eye(p).tolist() for p in doc["config"]["p_coupling"]]
        blocks[0][0][0] = float("nan")
        doc["sigma_blocks"] = blocks

    def huge_a(doc):
        doc["a"][0] = 10**400  # numpy raises OverflowError converting it

    def not_psd_sigma_block(doc):
        blocks = [np.eye(p).tolist() for p in doc["config"]["p_coupling"]]
        blocks[0][0][0] = -1.0
        doc["sigma_blocks"] = blocks

    cases = [
        (non_numeric_a, "a"),
        (lambda doc: doc.update(t="abc"), "t"),
        (lambda doc: doc.update(t=None), "t"),
        (lambda doc: doc.update(D_shared=1.0), "D_shared"),
        (lambda doc: doc.update(D_local=1.0), "D_local"),
        (lambda doc: doc.update(sigma_blocks=1.0), "sigma_blocks"),
        (bad_index, "C_blocks"),
        # Integers must be JSON integers (no bools, no floats), and numbers
        # must not be bools; each of these used to load as a coerced value.
        (set_config("n_disciplines", 2.7), "config.n_disciplines"),
        (set_config("seed", 70.9), "config.seed"),
        (set_config("d_local", [2.5, 2]), "config.d_local[0]"),
        (set_config("d_shared", True), "config.d_shared"),
        (set_config("coupling_strength", True), "config.coupling_strength"),
        (set_index(0, 0.9), "C_blocks"),
        (set_index(1, True), "C_blocks"),
        (lambda doc: doc.update(version=True), "version"),
        (lambda doc: doc.update(t=True), "t"),
        (lambda doc: doc.update(t=10**400), "t"),  # beyond float range
        # json reads NaN and Infinity, which serialize never writes.
        (lambda doc: doc.update(t=float("nan")), "t"),
        (infinite_a, "a"),
        (infinite_c_block, "C_blocks[0,1]"),
        (nan_sigma_block, "sigma_blocks[0]"),
        (huge_a, "a"),
        (lambda doc: doc.update(C_blocks=1.0), "C_blocks"),
        (lambda doc: doc["C_blocks"][0].pop(), "C_blocks"),  # a pair, not a triple
        (set_index(0, 5), "C_blocks"),  # out of range
        (set_index(1, 0), "C_blocks"),  # i == j
        (lambda doc: doc["C_blocks"].pop(), "C_blocks"),  # a block missing
        (set_config("coupling_strength", 1.5), "config"),
        (set_config("coupling_strength", 0.995), "config"),
        (not_psd_sigma_block, "sigma_blocks"),
        (lambda doc: doc.update(comment="hand-edited"), "comment"),
    ]
    for corrupt, field in cases:
        doc = json.loads(payload)
        corrupt(doc)
        with pytest.raises(ProblemFormatError) as err:
            deserialize(json.dumps(doc))
        assert err.value.field == field

    # Every block is present, and (0, 1) is listed a second time with another
    # matrix; the later one must not silently replace the first.
    doc = json.loads(payload)
    i, j, block = doc["C_blocks"][0]
    doc["C_blocks"].append([i, j, (2.0 * np.asarray(block)).tolist()])
    with pytest.raises(ProblemFormatError, match=r"\(0, 1\)") as err:
        deserialize(json.dumps(doc))
    assert err.value.field == "C_blocks"

    # Data json cannot parse, whatever the error it raises.
    for data in (
        b"\xff" + payload,  # not UTF-8: UnicodeDecodeError
        "[" * 100_000,  # nested past the recursion limit: RecursionError
        '{"version": ' + "1" * 5000 + "}",  # past the int digit limit: ValueError
    ):
        with pytest.raises(ProblemFormatError) as err:
            deserialize(data)
        assert err.value.field == "<root>"


def test_deserialize_reads_exactly_the_config_fields(small_config):
    # Every ProblemConfig field is read from the file (none falls back to its
    # default), and a key that is no field is rejected by name.
    payload = serialize(generate(small_config))
    for field in dataclasses.fields(ProblemConfig):
        doc = json.loads(payload)
        del doc["config"][field.name]
        with pytest.raises(ProblemFormatError) as err:
            deserialize(json.dumps(doc))
        assert err.value.field == f"config.{field.name}"
    for key, value in (("coupling_strength", 0.25), ("feasibility_level", 0.75), ("seed", 7)):
        doc = json.loads(payload)
        doc["config"][key] = value
        assert getattr(deserialize(json.dumps(doc)).config, key) == value
    doc = json.loads(payload)
    doc["config"]["coupling_strenght"] = 0.5
    with pytest.raises(ProblemFormatError) as err:
        deserialize(json.dumps(doc))
    assert err.value.field == "config.coupling_strenght"


# Two sizes for the block-by-block reader: one block per list at p = 6, and
# 10 disciplines of 30 outputs (90 coupling triples) at p = 300.
_STREAM_CONFIGS = {
    6: ProblemConfig(2, 1, (2, 2), (3, 3), seed=42),
    300: ProblemConfig(10, 1, (5,) * 10, (30,) * 10, seed=3),
}


def _streamed_problem(p, noise):
    problem = generate(_STREAM_CONFIGS[p])
    if noise:
        problem.uncertainty = UncertaintyModel.isotropic(problem.config.p_coupling, 0.01)
    tune_feasibility(problem, n_samples=500)
    return problem


@pytest.mark.parametrize("noise", [True, False], ids=["sigma", "no-sigma"])
@pytest.mark.parametrize("p", sorted(_STREAM_CONFIGS))
def test_deserialize_streams_bitwise(p, noise):
    problem = _streamed_problem(p, noise)
    blob = serialize(problem)
    assert deserialize(blob) == problem
    assert deserialize(blob.decode("ascii")) == problem
    # Other layouts of the same document read back the same bits: pretty
    # printed, and with sorted keys, which puts every array before config
    # and version.
    doc = json.loads(blob)
    for text in (json.dumps(doc, indent=2), json.dumps(doc, sort_keys=True)):
        assert deserialize(text) == problem
    assert next(iter(json.loads(json.dumps(doc, sort_keys=True)))) == "C_blocks"


def test_deserialize_refuses_a_repeated_key():
    problem = _streamed_problem(6, noise=True)
    text = serialize(problem).decode("ascii")
    doc = json.loads(text)
    sorted_text = json.dumps(doc, sort_keys=True)
    again = {
        "version": ('"version": 1', '"version": 1, "version": 1'),
        "t": ('"t": ', '"t": 0.25, "t": '),
        "a": ('"a": ', f'"a": {json.dumps(doc["a"])}, "a": '),
        "C_blocks": ('"C_blocks": ', f'"C_blocks": {json.dumps(doc["C_blocks"])}, "C_blocks": '),
    }
    for key, (old, new) in again.items():
        for base in (text, sorted_text):
            assert base.count(old) == 1
            with pytest.raises(ProblemFormatError, match="repeated field") as err:
                deserialize(base.replace(old, new))
            assert err.value.field == key


def test_deserialize_truncated_file_names_the_root():
    blob = serialize(_streamed_problem(300, noise=True))
    doc = json.loads(blob)
    for offset in np.random.default_rng(28).integers(0, len(blob), size=20).tolist():
        with pytest.raises(ProblemFormatError) as err:
            deserialize(blob[:offset])
        assert err.value.field == "<root>", offset
    # Inside the first coupling triple, after the config and a.
    cut = blob.index(b'"C_blocks": ') + 300
    with pytest.raises(ProblemFormatError, match="invalid JSON") as err:
        deserialize(blob[:cut])
    assert err.value.field == "<root>"
    assert doc["C_blocks"][0][:2] == [0, 1]


def test_deserialize_names_the_root_and_the_config():
    for text in ("[]", "1", '"text"', "null", " [1, 2] "):
        with pytest.raises(ProblemFormatError, match="expected a JSON object") as err:
            deserialize(text)
        assert err.value.field == "<root>"
        assert str(err.value).endswith("(field: <root>)")
    for config in (5, [], None, "config"):
        with pytest.raises(ProblemFormatError, match="expected a JSON object") as err:
            deserialize(json.dumps({"version": 1, "config": config}))
        assert err.value.field == "config"
        assert str(err.value).endswith("(field: config)")


def test_deserialize_checks_version_and_config_first_then_document_order(small_config):
    payload = serialize(generate(small_config))

    def bad_a(doc):
        doc["a"][0] = "x"

    def bad_d_local(doc):
        doc["D_local"][1] = [[1.0]]

    def pair_triple(doc):
        doc["C_blocks"][0].pop()

    def bad_t(doc):
        doc["t"] = "abc"

    def not_psd_sigma(doc):
        blocks = [np.eye(p).tolist() for p in doc["config"]["p_coupling"]]
        blocks[0][0][0] = -1.0
        doc["sigma_blocks"] = blocks

    def bad_config(doc):
        doc["config"]["coupling_strength"] = 1.5

    def unknown(doc):
        doc["comment"] = "hand-edited"

    # One fault each: a file in another key order meets the same checks.
    cases = [
        (bad_a, "a"),
        (bad_d_local, "D_local[1]"),
        (pair_triple, "C_blocks"),
        (bad_t, "t"),
        (not_psd_sigma, "sigma_blocks"),
        (bad_config, "config"),
        (unknown, "comment"),
    ]
    for corrupt, field in cases:
        doc = json.loads(payload)
        corrupt(doc)
        for text in (json.dumps(doc), json.dumps(doc, sort_keys=True, indent=1)):
            with pytest.raises(ProblemFormatError) as err:
                deserialize(text)
            assert err.value.field == field, (corrupt.__name__, text[:20])

    # Two faults: the first in document order is named. A syntax error after
    # a malformed member no longer hides it.
    doc = json.loads(payload)
    bad_a(doc)
    bad_t(doc)
    for keys, field in ((list(doc), "a"), (["version", "config", "t", *doc], "t")):
        text = json.dumps({k: doc[k] for k in keys})
        with pytest.raises(ProblemFormatError) as err:
            deserialize(text)
        assert err.value.field == field
        with pytest.raises(ProblemFormatError) as err:
            deserialize(text[:-5])
        assert err.value.field == field
    # The version and then the config come first wherever they stand.
    doc = json.loads(payload)
    bad_a(doc)
    bad_config(doc)
    with pytest.raises(ProblemFormatError) as err:
        deserialize(json.dumps(doc, sort_keys=True))
    assert err.value.field == "config"
    doc["version"] = 2
    with pytest.raises(ProblemVersionError):
        deserialize(json.dumps(doc, sort_keys=True))


def test_deserialize_holds_one_block_of_floats():
    # The text is decoded once (1 byte a character), then each block is
    # converted before the next is decoded, so the peak is the text, the
    # arrays and one block's floats: 1.41x the 2.0 MB file. Decoding the
    # whole document first peaks at 2.96x, and decoding the whole C_blocks
    # list (90 triples of 900 floats, most of the file) at 2.79x.
    blob = serialize(_streamed_problem(300, noise=True))
    deserialize(blob)
    tracemalloc.start()
    try:
        deserialize(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blob) > 1.5e6
    assert peak <= 1.8 * len(blob)


def test_uncertainty_model_validation():
    with pytest.raises(ValueError):
        UncertaintyModel((np.array([[1.0, 0.5], [0.0, 1.0]]),))
    with pytest.raises(ValueError):
        UncertaintyModel((np.array([[1.0, 2.0], [2.0, 1.0]]),))
    # A non-finite block is named as such, not as asymmetric.
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma block 0 is not finite"):
            UncertaintyModel((np.full((2, 2), value),))
        with pytest.raises(ValueError, match="std must be finite"):
            UncertaintyModel.isotropic((2, 3), value)
    model = UncertaintyModel.isotropic((2, 3), 0.1)
    assert model.sigma.shape == (5, 5)
    assert np.allclose(model.sigma, 0.01 * np.eye(5))
