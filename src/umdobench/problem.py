"""Scalable coupled-linear-discipline benchmark problems.

A problem instance consists of N disciplines. Discipline i maps the shared
design variables x0, its local design variables x_i and the other disciplines'
coupling outputs y_j (j != i) to its own coupling output:

    y_i = a_i - D_shared[i] @ x0 - D_local[i] @ x_i + sum_{j != i} C[i,j] @ y_j

All coefficients are drawn uniformly on [0, 1) from a seeded PCG64 generator,
then the coupling blocks are rescaled row-wise so that the assembled coupling
matrix is strictly diagonally dominant (see :func:`generate`). The inequality
constraints require every component of every y_i to stay above a scalar
threshold ``t``, which :func:`tune_feasibility` calibrates so that a chosen
fraction of the unit design hypercube is feasible.

``scipy.linalg`` is first imported by :attr:`BlockSystem.lu`, the coupling
matrix's factorization; generating, serializing, deserializing and
fingerprinting a problem load no scipy module.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import re
import types
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    CapacityError,
    NumericalError,
    ProblemFormatError,
    ProblemVersionError,
    SingularCouplingError,
)

__all__ = [
    "ProblemConfig",
    "ScalableProblem",
    "BlockSystem",
    "UncertaintyModel",
    "generate",
    "assemble",
    "tune_feasibility",
    "serialize",
    "deserialize",
    "problem_digest",
    "instance_digest",
    "FORMAT_VERSION",
    "MAX_MATRIX_ELEMENTS",
    "MAX_COUPLING_STRENGTH",
]

FORMAT_VERSION = 1

# Guard against accidental huge allocations during generation: the assembled
# system stores a p x p coupling matrix and a p x d design map. Threshold
# tuning needs no n_samples x p buffer (it streams its sample in row blocks),
# so this cap bounds the largest arrays a problem ever needs.
MAX_MATRIX_ELEMENTS = 1 << 26

# Largest coupling strength a configuration accepts. A fixed-point coupling
# solve needs about log(r0 / tol) / (1 - q) sweeps when its iteration matrix
# has spectral radius q, which generation makes up to the coupling strength,
# so its run time grows as 1 / (1 - q). On the 2 x 3 family a warm-started
# 200-row Jacobi block takes about 600 sweeps at 0.99 and 60 000 at 0.9999,
# and one `mc:200` benchmark run up to 3 s at 0.99 but 57 s at 0.999.
MAX_COUPLING_STRENGTH = 0.99

# Bytes of one row block of design-point outputs in tune_feasibility: small
# enough that a block stays in cache while it is offset and reduced.
_TUNE_BLOCK_BYTES = 1 << 20


def _integer(value, name, minimum=1) -> int:
    """``value`` as an int of at least ``minimum``. Bools and non-integral
    values, even 2.0, raise ValueError naming ``name``, where ``int()`` would
    read 2.7 as 2 and True as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


@dataclass(frozen=True)
class ProblemConfig:
    """Dimensions and generation parameters of a scalable problem.

    Parameters
    ----------
    n_disciplines : int
        Number of coupled disciplines N (>= 1).
    d_shared : int
        Dimension (>= 1) of the design variables shared by all disciplines.
    d_local : tuple of int
        Per-discipline local design dimensions, length N.
    p_coupling : tuple of int
        Per-discipline coupling output dimensions, length N, each at least
        the discipline's ``d_local`` entry. The reduced QP's Hessian is
        ``2 (diag(I_shared, 0) + beta' beta)`` with ``beta = -P D`` and ``P``
        invertible, so it is positive definite, and the reference optimum
        unique, exactly when every local block ``D_local[i]`` has full column
        rank; a block with fewer rows than columns never has.
    coupling_strength : float
        Upper bound, in (0, ``MAX_COUPLING_STRENGTH``] = (0, 0.99], on every
        row sum of the off-diagonal part of the assembled coupling matrix.
        Controls the contraction rate of fixed-point coupling solvers; values
        near 1 couple strongly but converge slowly, their sweeps growing as
        1 / (1 - coupling_strength).
    feasibility_level : float
        Target fraction, in (0, 1), of the unit design hypercube that should
        satisfy all constraints after threshold tuning.
    seed : int
        Seed of the generation PRNG (PCG64), >= 0. Generation is a pure
        function of this configuration.
    """

    n_disciplines: int
    d_shared: int
    d_local: tuple[int, ...]
    p_coupling: tuple[int, ...]
    coupling_strength: float = 0.5
    feasibility_level: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_disciplines", "d_shared"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", minimum=0))
        for name in ("d_local", "p_coupling"):
            dims = tuple(_integer(v, f"{name}[{i}]") for i, v in enumerate(getattr(self, name)))
            if len(dims) != self.n_disciplines:
                raise ValueError(f"{name} must have length n_disciplines")
            object.__setattr__(self, name, dims)
        for i, (p, d) in enumerate(zip(self.p_coupling, self.d_local)):
            if p < d:
                raise ValueError(
                    f"p_coupling[{i}] = {p} is below d_local[{i}] = {d}: the reference "
                    "optimum would not be unique"
                )
        if not 0.0 < self.coupling_strength <= MAX_COUPLING_STRENGTH:
            raise ValueError(f"coupling_strength must lie in (0, {MAX_COUPLING_STRENGTH}]")
        if not 0.0 < self.feasibility_level < 1.0:
            raise ValueError("feasibility_level must lie in (0, 1)")

    @property
    def d(self) -> int:
        """Total design dimension d_shared + sum(d_local)."""
        return self.d_shared + sum(self.d_local)

    @property
    def p(self) -> int:
        """Total coupling dimension sum(p_coupling)."""
        return sum(self.p_coupling)


@dataclass(frozen=True)
class UncertaintyModel:
    """Centered block-independent noise added to the coupling equations.

    ``sigma_blocks[i]`` is the covariance of the noise entering discipline i;
    the assembled covariance is block diagonal. The mean is zero. Zero
    noise is the model whose blocks are all zero, e.g. ``isotropic(p, 0.0)``.
    """

    sigma_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=float) for b in self.sigma_blocks)
        for i, b in enumerate(blocks):
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValueError(f"sigma block {i} is not square")
            if not np.isfinite(b).all():
                raise ValueError(f"sigma block {i} is not finite")
            if not np.allclose(b, b.T, atol=1e-12):
                raise ValueError(f"sigma block {i} is not symmetric")
            w = np.linalg.eigvalsh(0.5 * (b + b.T))
            if w.size and w.min() < -1e-12 * max(1.0, abs(w).max()):
                raise ValueError(f"sigma block {i} is not positive semi-definite")
        object.__setattr__(self, "sigma_blocks", blocks)

    @property
    def p_coupling(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.sigma_blocks)

    @property
    def sigma(self) -> np.ndarray:
        """Assembled block-diagonal covariance, shape (p, p)."""
        sigma = np.zeros((sum(self.p_coupling),) * 2)
        start = 0
        for b in self.sigma_blocks:
            stop = start + b.shape[0]
            sigma[start:stop, start:stop] = b
            start = stop
        return sigma

    @classmethod
    def isotropic(cls, p_coupling, std: float) -> "UncertaintyModel":
        """Gaussian noise with covariance std**2 * I on every block."""
        if not math.isfinite(std):
            raise ValueError("std must be finite")
        if std < 0:
            raise ValueError("std must be >= 0")
        blocks = tuple(std ** 2 * np.eye(p) for p in p_coupling)
        return cls(sigma_blocks=blocks)


@dataclass
class ScalableProblem:
    """A generated problem instance.

    Fields follow the block structure of the coupling equations: ``a`` stacks
    the per-discipline constant terms, ``D_shared[i]`` and ``D_local[i]`` are
    the design-variable coefficient blocks of discipline i and
    ``C_blocks[(i, j)]`` the coupling coefficients of discipline i with
    respect to the outputs of discipline j. ``t`` is the scalar constraint
    threshold (0 until :func:`tune_feasibility` is called).
    """

    config: ProblemConfig
    a: np.ndarray
    D_shared: tuple[np.ndarray, ...]
    D_local: tuple[np.ndarray, ...]
    C_blocks: dict[tuple[int, int], np.ndarray]
    t: float = 0.0
    uncertainty: UncertaintyModel | None = None

    def __eq__(self, other):
        """Bitwise equality: the same config, threshold bits, coupling-block
        keys and arrays (dtype, shape and bytes, so ``-0.0 != 0.0``). A
        problem without a noise model differs from one with zero noise."""
        if not isinstance(other, ScalableProblem):
            return NotImplemented
        mine, theirs = _arrays(self), _arrays(other)
        return (
            self.config == other.config
            and float(self.t).hex() == float(other.t).hex()
            and sorted(self.C_blocks) == sorted(other.C_blocks)
            and (self.uncertainty is None) == (other.uncertainty is None)
            and len(mine) == len(theirs)
            and all(
                a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                for a, b in zip(mine, theirs)
            )
        )


def _arrays(problem: ScalableProblem) -> list[np.ndarray]:
    """Every array of ``problem`` in file order, coupling blocks by key."""
    blocks = [problem.C_blocks[k] for k in sorted(problem.C_blocks)]
    sigma = () if problem.uncertainty is None else problem.uncertainty.sigma_blocks
    arrays = (problem.a, *problem.D_shared, *problem.D_local, *blocks, *sigma)
    return [np.asarray(v) for v in arrays]


class BlockSystem:
    """Assembled dense form of the coupling equations ``C y = a - D x (+ u)``.

    ``C`` carries identity diagonal blocks and the negated coupling blocks
    off the diagonal; ``D`` has its first ``d_shared`` columns dense and the
    remaining columns block diagonal. ``d_shared`` alone says which design
    variables are shared: the first ``d_shared``, whose squares the objective
    sums with those of the coupling outputs.

    What it caches: the LU factorization of ``C``, the iteration matrix and
    the affine map, each computed when first read, and the output variances
    of the last noise that :meth:`output_variance` propagated, so that the
    reference QP and the evaluators built on one system compute them once.
    The memo holds the noise's diagonal blocks as the positions and bit
    patterns of their entries that are not +0.0, never the dense p x p
    covariance, so an isotropic block costs it 16 bytes per row. It answers
    only a covariance whose blocks are bit for bit those: another noise, or
    the same one changed in place, is propagated anew. It is as safe as the
    cached maps it reads, which rest on what the package keeps: a system's
    arrays are not written after it is built. Each answer is a copy, so no
    caller sees another's edits.
    """

    def __init__(self, C, D, a, p_coupling, d_shared):
        self.C = np.asarray(C, dtype=float)
        self.D = np.asarray(D, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.p_coupling = tuple(p_coupling)
        self.d_shared = int(d_shared)
        self._noise_key = None  # the last propagated noise blocks, by _nonzero_bits
        self._variance = None

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def d(self) -> int:
        return self.D.shape[1]

    @functools.cached_property
    def block_slices(self) -> tuple[slice, ...]:
        """Row slice of each discipline in the stacked coupling vector."""
        offsets = np.concatenate([[0], np.cumsum(self.p_coupling)])
        return tuple(slice(int(o), int(e)) for o, e in zip(offsets[:-1], offsets[1:]))

    @functools.cached_property
    def lu(self):
        """Cached LU factorization of the coupling matrix.

        Raises
        ------
        SingularCouplingError
            If a pivot of the factorization (numerically) vanishes.
        """
        import scipy.linalg

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(self.C, check_finite=False)
        diag = np.abs(np.diag(lu))
        if diag.min() <= np.finfo(float).eps * max(1.0, diag.max()):
            raise SingularCouplingError("coupling matrix is numerically singular")
        return lu, piv

    @functools.cached_property
    def iteration_matrix(self) -> np.ndarray:
        """Fixed-point iteration matrix I - C (the stacked coupling blocks)."""
        return np.eye(self.p) - self.C

    @functools.cached_property
    def iteration_norm(self) -> float:
        """``||I - C||_inf``, the largest absolute row sum of the iteration matrix.

        Generation bounds it by the configured ``coupling_strength``. Below 1
        it bounds how much one Jacobi or Gauss-Seidel sweep shrinks the error
        in the max norm.
        """
        return float(np.abs(self.iteration_matrix).sum(axis=1).max())

    @functools.cached_property
    def linear_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact affine coupling solution ``y = alpha + beta @ x + P @ u``.

        Returns ``(alpha, beta, P)``, valid for every design point and noise
        realization: ``alpha = P @ a`` is the zero-design solution,
        ``beta = -P @ D`` the Jacobian with respect to the design and ``P``
        (the inverse coupling matrix) the Jacobian with respect to the noise.

        Raises
        ------
        NumericalError
            If the outputs can overflow over the unit design box: the
            objective and the reduced QP sum their squares, so the squares
            of the bound ``|alpha| + |beta| 1`` must sum to a finite number.
            The check runs before any coupling solve, with numpy's overflow
            warnings silenced.
        """
        import scipy.linalg

        P = scipy.linalg.lu_solve(self.lu, np.eye(self.p), check_finite=False)
        with np.errstate(over="ignore", invalid="ignore"):
            alpha = P @ self.a
            beta = -(P @ self.D)  # negates the p x d product, not a p x p copy of P
            bound = np.abs(alpha) + np.abs(beta).sum(axis=1)
            finite = np.isfinite(bound @ bound)
        if not finite:
            raise NumericalError("coupling outputs overflow over the unit design box")
        return alpha, beta, P

    def output_variance(self, sigma) -> np.ndarray:
        """Variances ``diag(P Sigma P')`` of the coupling outputs under noise ``sigma``.

        The coupling solution is affine in the noise, so every closed-form
        statistic the benchmark reports sees the noise only through these
        variances: their square roots are the propagated standard deviations
        and their sum the expected quadratic noise energy. ``sigma`` is block
        diagonal over the coupling blocks, so the variances are summed block
        by block, ``rowsum((P[:, b] @ Sigma[b, b]) * P[:, b])``, at
        O(p^2 p_block) cost instead of the O(p^3) full product. They are
        clamped at zero once no component is negative beyond round-off. A
        ``sigma`` whose blocks are bit for bit those of the last one
        propagated is answered from the system's memo, without the products.

        Raises
        ------
        ValueError
            If ``sigma`` is not a symmetric (p, p) matrix that is zero off
            the coupling blocks.
        NumericalError
            If a propagated variance is negative beyond round-off.
        """
        sigma = np.asarray(sigma, dtype=float)
        p = self.p
        if sigma.shape != (p, p):
            raise ValueError(f"sigma must have shape ({p}, {p}), got {sigma.shape}")
        # Off the blocks sigma must be zero, so symmetry is checked per block.
        blocks = [sigma[b, b] for b in self.block_slices]
        key = [_nonzero_bits(s) for s in blocks]
        known = key == self._noise_key  # blocks that passed these checks
        if not known and not all(np.allclose(s, s.T, atol=1e-10) for s in blocks):
            raise ValueError("sigma must be symmetric")
        if np.count_nonzero(sigma) != sum(np.count_nonzero(s) for s in blocks):
            raise ValueError("sigma must be zero off the coupling blocks")
        if not known:
            self._variance = self._propagate(blocks)
            self._noise_key = key
        return self._variance.copy()

    def _propagate(self, blocks) -> np.ndarray:
        """``diag(P Sigma P')`` summed over the diagonal ``blocks`` of Sigma."""
        _, _, P = self.linear_map
        var = np.zeros(self.p)
        for b, sigma_b in zip(self.block_slices, blocks):
            P_b = P[:, b]
            var += ((P_b @ sigma_b) * P_b).sum(axis=1)
        if var.min() < -1e-12 * max(1.0, abs(var).max()):
            raise NumericalError(f"propagated variance has negative component {var.min():.3e}")
        return np.maximum(var, 0.0)


def _nonzero_bits(block) -> bytes:
    """The flat positions and bit patterns of the entries of ``block`` that
    are not +0.0, as bytes: the block's exact content in 16 bytes per such
    entry, so an isotropic block costs 16 bytes per row."""
    bits = block.view(np.int64).ravel()
    where = np.flatnonzero(bits)
    return where.tobytes() + bits.take(where).tobytes()


def generate(config: ProblemConfig) -> ScalableProblem:
    """Draw a random problem instance from a configuration.

    All entries of the constant vector, the design coefficient blocks and the
    raw coupling blocks are i.i.d. uniform on [0, 1), drawn from
    ``numpy.random.default_rng(config.seed)`` (PCG64) in a fixed order: the
    constant blocks a_1..a_N, then the shared design blocks for disciplines
    1..N, the local design blocks for disciplines 1..N, and finally the
    coupling blocks in row-major (i, j) order, each matrix filled row-major.
    The coupling blocks are then rescaled row-wise by
    ``coupling_strength / max(1, row_sum)`` so every off-diagonal row sum of
    the assembled coupling matrix is at most ``coupling_strength`` < 1, which
    makes the matrix strictly diagonally dominant (hence invertible) and the
    fixed-point iteration a contraction.

    The constraint threshold is left at 0; call :func:`tune_feasibility` to
    calibrate it.

    Raises
    ------
    CapacityError
        If the assembled system would exceed ``MAX_MATRIX_ELEMENTS`` matrix
        entries; raised before anything is drawn.
    """
    p, d = config.p, config.d
    if p * (p + d) > MAX_MATRIX_ELEMENTS:
        raise CapacityError(
            f"problem needs {p * (p + d)} matrix elements for p={p}, d={d}; "
            f"cap is {MAX_MATRIX_ELEMENTS}"
        )
    n = config.n_disciplines
    rng = np.random.default_rng(config.seed)

    a_blocks = [rng.random(p) for p in config.p_coupling]
    d_shared_blocks = tuple(rng.random((p, config.d_shared)) for p in config.p_coupling)
    d_local_blocks = tuple(
        rng.random((p, dl)) for p, dl in zip(config.p_coupling, config.d_local)
    )
    raw = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                raw[(i, j)] = rng.random((config.p_coupling[i], config.p_coupling[j]))

    # Row-wise rescaling of the coupling blocks; rows whose raw sum is below 1
    # shrink by coupling_strength, the rest are normalized to hit it exactly.
    c_blocks = {}
    for i in range(n):
        others = [raw[(i, j)] for j in range(n) if j != i]
        if others:
            row_sums = np.sum([blk.sum(axis=1) for blk in others], axis=0)
            factors = config.coupling_strength / np.maximum(1.0, row_sums)
            for j in range(n):
                if j != i:
                    c_blocks[(i, j)] = raw[(i, j)] * factors[:, None]

    return ScalableProblem(
        config=config,
        a=np.concatenate(a_blocks),
        D_shared=d_shared_blocks,
        D_local=d_local_blocks,
        C_blocks=c_blocks,
    )


def assemble(problem: ScalableProblem) -> BlockSystem:
    """Stack the per-discipline blocks into the dense compact form."""
    cfg = problem.config
    n, p, d = cfg.n_disciplines, cfg.p, cfg.d
    row_off = np.concatenate([[0], np.cumsum(cfg.p_coupling)]).astype(int)

    C = np.eye(p)
    for (i, j), blk in problem.C_blocks.items():
        C[row_off[i]:row_off[i + 1], row_off[j]:row_off[j + 1]] = -blk

    D = np.zeros((p, d))
    D[:, : cfg.d_shared] = np.vstack(problem.D_shared)
    col = cfg.d_shared
    for i in range(n):
        D[row_off[i]:row_off[i + 1], col:col + cfg.d_local[i]] = problem.D_local[i]
        col += cfg.d_local[i]

    return BlockSystem(
        C=C,
        D=D,
        a=problem.a.copy(),
        p_coupling=cfg.p_coupling,
        d_shared=cfg.d_shared,
    )


def tune_feasibility(
    problem: ScalableProblem,
    n_samples: int = 10_000,
    quantile_seed: int = 0,
) -> float:
    """Calibrate the constraint threshold to the configured feasibility level.

    Draws ``n_samples`` design points uniformly on the unit hypercube,
    evaluates the noise-free coupling outputs through the exact linear map,
    takes the minimum output component per point, and sets the threshold to
    the empirical ``1 - feasibility_level`` quantile of those minima (linear
    interpolation between order statistics). After tuning, the fraction of
    the design space on which every coupling output stays above the threshold
    approximates ``feasibility_level``.

    The sampling stream is seeded by ``quantile_seed``, independent of the
    matrix-generation seed. The threshold is stored on the problem and
    returned.

    The sample is drawn and mapped in near-equal row blocks of about 1 MiB
    of outputs each, so the working set is one block plus ``n_samples``
    floats of minima, whatever ``n_samples`` and p are. The threshold is
    bit-identical to mapping the whole sample at once: the blocked draws
    concatenate to the one-shot draw, and the blocks are split evenly, so
    each has at least 8 rows for any p under the default capacity cap. BLAS
    rounds a row of such a block as it does in the one-shot product; a 1- or
    2-row block would round differently.
    """
    n_samples = _integer(n_samples, "n_samples", minimum=2)
    system = assemble(problem)
    alpha, beta, _ = system.linear_map
    rng = np.random.default_rng(quantile_seed)
    n_blocks = -(-n_samples * system.p * 8 // _TUNE_BLOCK_BYTES)
    bounds = np.linspace(0, n_samples, n_blocks + 1).astype(int)
    worst = np.empty(n_samples)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        W = rng.random((hi - lo, system.d)) @ beta.T
        W += alpha
        W.min(axis=1, out=worst[lo:hi])
    t = float(np.quantile(worst, 1.0 - problem.config.feasibility_level))
    problem.t = t
    return t


# --- JSON problem files ------------------------------------------------------
#
# Floats are rendered with 17 significant digits, which round-trips IEEE-754
# doubles exactly, so serialize/deserialize is a bitwise identity. The text of
# a float is ``format(x, ".17g")``, except that -0.0, which would print as
# ``-0`` and read back as the int 0, is written as ``-0.0``.
#
# ``_pieces`` walks the document once into literal text and arrays of at most
# two dimensions, and cuts their values, in document order, into chunks of
# ``_CHUNK`` values, so the working set stays at about 1 MB (one chunk's kernel
# temporaries) at any problem size. ``_emit`` writes the pieces into one buffer
# for ``serialize`` and ``export_qp``, and ``problem_digest`` hashes them, one
# at a time. Every float, the scalars (``t``, the config floats, a QP's ``d0``)
# as 0-d arrays among the others, is formatted by
# ``umdobench._floatfmt.format_values``, an exact numpy kernel that writes that
# text. ``_floatfmt`` is imported when a file's first chunk needs it, so
# importing the package never compiles it.
#
# ``deserialize`` reads a file with json's own C scanner one top-level member
# at a time, and a block list (``D_shared``, ``D_local``, ``C_blocks``,
# ``sigma_blocks``) one block at a time, converting each block to its array
# before it decodes the next. Its peak is then the decoded text (one byte
# per character), the arrays and one block's Python floats: tracemalloc reads
# 1.37x the file at p = 600 and 1.35x at p = 2000, where ``json.loads`` of
# the whole document peaked at 2.9x and 2.8x. That is the lean order, config
# before the arrays, as serialize writes it; an array that comes before the
# config is decoded whole and held until the config is read.

_CHUNK = 4096


def _separators(arr, lo, hi):
    """Separator codes after the values at flat indices ``lo:hi`` of ``arr``."""
    seps = np.zeros(hi - lo, dtype=np.intp)
    if arr.ndim == 2:
        row = arr.shape[1]
        seps[(row - 1 - lo) % row :: row] = 1
    if hi == arr.size:
        seps[-1] = 2
    return seps


def _format_chunk(chunk):
    """Yield the text of ``(literal, values, separators)`` segments, in order."""
    from ._floatfmt import format_values  # compiled when a file first needs it

    values = np.concatenate([v for _, v, _ in chunk])
    text, ends = format_values(values, np.concatenate([s for _, _, s in chunk]))
    text = memoryview(text)  # slices without copies
    start = stop = 0
    for literal, v, _ in chunk:
        stop += v.size
        yield literal.encode("ascii")
        yield text[start : ends[stop - 1]]
        start = ends[stop - 1]


def _tokens(obj, out):
    """Append the JSON text of ``obj`` to ``out`` as literal strings, and as
    the float arrays of at most two dimensions whose values, with the
    separators between them (a float scalar as a 0-d one), to be formatted."""
    if isinstance(obj, np.ndarray):
        arr = np.asarray(obj, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("cannot serialize non-finite value")
        if arr.ndim > 2 or arr.size == 0:  # as lists of its sub-arrays
            _tokens(list(arr), out)
        else:
            out += ("[" * arr.ndim, arr, "]" * arr.ndim)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{', ' if i else ''}{json.dumps(k)}: ")
            _tokens(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _tokens(v, out)
        out.append("]")
    elif isinstance(obj, (bool, type(None))):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _tokens(np.array(obj, dtype=float), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _pieces(obj):
    """Yield the canonical JSON text of ``obj`` as bytes-like pieces, in
    order, formatting its array values in chunks of ``_CHUNK``."""
    tokens = []
    _tokens(obj, tokens)
    chunk, literal, size = [], [], 0
    for token in tokens:
        if isinstance(token, str):
            literal.append(token)
            continue
        flat = token.ravel()
        lo = 0
        while lo < flat.size:
            hi = min(flat.size, lo + _CHUNK - size)
            chunk.append(("".join(literal), flat[lo:hi], _separators(token, lo, hi)))
            literal, size, lo = [], size + hi - lo, hi
            if size == _CHUNK:
                yield from _format_chunk(chunk)
                chunk, size = [], 0
    if chunk:
        yield from _format_chunk(chunk)
    yield "".join(literal).encode("ascii")


def _emit(obj) -> bytes:
    """Canonical JSON text of ``obj`` as ASCII bytes; arrays are nested lists
    of floats. Each piece is written into one buffer as it is formatted, so
    the pieces are never held all at once beside the joined text."""
    buffer = io.BytesIO()
    for piece in _pieces(obj):
        buffer.write(piece)
    return buffer.getvalue()


def _document(problem: ScalableProblem) -> dict:
    return {
        "version": FORMAT_VERSION,
        "config": asdict(problem.config),
        "a": problem.a,
        "D_shared": problem.D_shared,
        "D_local": problem.D_local,
        "C_blocks": [
            [i, j, problem.C_blocks[(i, j)]] for (i, j) in sorted(problem.C_blocks)
        ],
        "t": problem.t,
        "sigma_blocks": (
            None if problem.uncertainty is None else problem.uncertainty.sigma_blocks
        ),
    }


def serialize(problem: ScalableProblem) -> bytes:
    """Render a problem as canonical JSON bytes (17-significant-digit floats)."""
    return _emit(_document(problem))


def _invalid(exc) -> ProblemFormatError:
    return ProblemFormatError(f"invalid JSON: {exc}", field="<root>")


_WHITESPACE = re.compile(r"[ \t\n\r]*")  # the characters json skips between tokens
_DECODER = json.JSONDecoder()


class _Scanner:
    """A cursor over JSON text that decodes one value at a time with json's
    own C scanner: ``raw_decode`` reads a value, ``scanstring`` a key. Its
    syntax errors, and json's, are ProblemFormatErrors naming ``<root>``."""

    def __init__(self, text: str):
        self.text, self.pos, self.start = text, 0, 0

    def peek(self) -> str:
        """The next character after whitespace, or '' at the end."""
        self.pos = _WHITESPACE.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def expect(self, char, what):
        if self.peek() != char:
            raise _invalid(json.JSONDecodeError(f"Expecting {what}", self.text, self.pos))
        self.pos += 1

    def value(self):
        """The next value, decoded whole."""
        self.peek()
        self.start = self.pos
        # json's errors are ValueErrors, as is the error for an integer
        # longer than Python's int-to-str digit limit.
        try:
            value, self.pos = _DECODER.raw_decode(self.text, self.pos)
        except (ValueError, RecursionError) as exc:
            raise _invalid(exc) from exc
        return value

    def plain(self) -> bool:
        """Whether the text of the value read last holds no '"', 't', 'f' or
        'n': no JSON number has one, and strings, true, false and null do."""
        return all(self.text.find(c, self.start, self.pos) < 0 for c in '"tfn')

    def array(self):
        """The next value: if it is an array, a generator that decodes its
        elements one at a time as it is iterated; otherwise the value."""
        return self._elements() if self.peek() == "[" else self.value()

    def _elements(self):
        self.pos += 1
        if self.peek() == "]":
            self.pos += 1
            return
        while True:
            yield self.value()
            if self.peek() != ",":
                self.expect("]", "',' delimiter")
                return
            self.pos += 1

    def members(self):
        """Yield the keys of the object that starts here; the caller reads
        each key's value before it asks for the next key."""
        self.expect("{", "'{'")
        if self.peek() == "}":
            self.pos += 1
            return
        while True:
            self.expect('"', "property name enclosed in double quotes")
            try:
                key, self.pos = json.decoder.scanstring(self.text, self.pos)
            except ValueError as exc:
                raise _invalid(exc) from exc
            self.expect(":", "':' delimiter")
            yield key
            if self.peek() != ",":
                self.expect("}", "',' delimiter")
                return
            self.pos += 1

    def end(self):
        if self.peek():
            raise _invalid(json.JSONDecodeError("Extra data", self.text, self.pos))


def _as_int(value, path):
    """A JSON integer. Bools and floats, even integral ones such as 2.0, are
    rejected; ``int()`` would silently read 2.7 as 2 and true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(f"expected an integer, got {value!r}", field=path)
    return value


def _as_int_list(value, path):
    if not isinstance(value, list):
        raise ProblemFormatError("expected a list of integers", field=path)
    return tuple(_as_int(v, f"{path}[{k}]") for k, v in enumerate(value))


def _as_float(value, path):
    """A finite JSON number; bools, strings, ``NaN`` and ``Infinity`` are
    rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"expected a number, got {value!r}", field=path)
    try:
        value = float(value)
    except OverflowError as exc:
        raise ProblemFormatError(f"not a float: {exc}", field=path) from exc
    if not math.isfinite(value):
        raise ProblemFormatError(f"expected a finite number, got {value!r}", field=path)
    return value


def _as_array(value, shape, path, plain):
    # numpy would read "0.5" as 0.5 and true as 1.0; a plain text holds no
    # string, true, false or null (see _Scanner.plain).
    if not plain and any(word in json.dumps(value) for word in ('"', "true", "false", "null")):
        raise ProblemFormatError("expected numbers, got a string, true, false or null", field=path)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"not a numeric array: {exc}", field=path) from exc
    if arr.shape != shape:
        raise ProblemFormatError(
            f"expected shape {shape}, got {arr.shape}", field=path
        )
    if not np.isfinite(arr).all():
        raise ProblemFormatError("expected finite numbers", field=path)
    return arr


def _is_array(value) -> bool:
    """A JSON array, decoded whole or streamed by :meth:`_Scanner.array`."""
    return isinstance(value, (list, types.GeneratorType))


def _as_version(value):
    version = _as_int(value, "version")
    if version != FORMAT_VERSION:
        raise ProblemVersionError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION})",
            field="version",
        )
    return version


# How deserialize reads each ProblemConfig field, keyed by the field's
# annotation (a string, under ``from __future__ import annotations``).
# Derived from the dataclass, so every field serialize writes is read back;
# a field of a type missing here fails at import, not silently.
_CONVERTERS = {"int": _as_int, "float": _as_float, "tuple[int, ...]": _as_int_list}
_CONFIG_FIELDS = tuple((f.name, _CONVERTERS[f.type]) for f in fields(ProblemConfig))


def _as_config(value) -> ProblemConfig:
    if not isinstance(value, dict):
        raise ProblemFormatError("expected a JSON object", field="config")
    values = {}
    for key, convert in _CONFIG_FIELDS:
        if key not in value:
            raise ProblemFormatError("missing required field", field=f"config.{key}")
        values[key] = convert(value[key], f"config.{key}")
    for key in value:
        if key not in values:
            raise ProblemFormatError("unknown config field", field=f"config.{key}")
    try:
        return ProblemConfig(**values)
    except ValueError as exc:
        raise ProblemFormatError(f"invalid config: {exc}", field="config") from exc


def _as_block_list(elements, shapes, path, plain):
    """One array per element of ``elements``, each converted as it arrives.
    A streamed list is decoded a block at a time, so only one block's
    Python floats exist at once."""
    wrong_count = f"expected a list of {len(shapes)} blocks"
    if not _is_array(elements):
        raise ProblemFormatError(wrong_count, field=path)
    blocks = []
    for block in elements:
        k = len(blocks)
        if k == len(shapes):
            raise ProblemFormatError(wrong_count, field=path)
        blocks.append(_as_array(block, shapes[k], f"{path}[{k}]", plain()))
        del block  # freed before the next block is decoded
    if len(blocks) != len(shapes):
        raise ProblemFormatError(wrong_count, field=path)
    return tuple(blocks)


def _as_coupling_blocks(elements, config, plain):
    if not _is_array(elements):
        raise ProblemFormatError("expected a list of [i, j, matrix] triples", field="C_blocks")
    n = config.n_disciplines
    blocks = {}
    for entry in elements:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ProblemFormatError("expected [i, j, matrix] triples", field="C_blocks")
        i, j = _as_int(entry[0], "C_blocks"), _as_int(entry[1], "C_blocks")
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ProblemFormatError(f"invalid block index ({i}, {j})", field="C_blocks")
        if (i, j) in blocks:
            raise ProblemFormatError(f"repeated block index ({i}, {j})", field="C_blocks")
        blocks[(i, j)] = _as_array(
            entry[2],
            (config.p_coupling[i], config.p_coupling[j]),
            f"C_blocks[{i},{j}]",
            plain(),
        )
        del entry  # freed before the next triple is decoded
    expected_blocks = n * (n - 1)
    if len(blocks) != expected_blocks:
        raise ProblemFormatError(
            f"expected {expected_blocks} coupling blocks, got {len(blocks)}",
            field="C_blocks",
        )
    return blocks


def _as_uncertainty(elements, config, plain):
    if elements is None:
        return None
    shapes = [(p, p) for p in config.p_coupling]
    blocks = _as_block_list(elements, shapes, "sigma_blocks", plain)
    try:
        return UncertaintyModel(sigma_blocks=blocks)
    except ValueError as exc:
        raise ProblemFormatError(str(exc), field="sigma_blocks") from exc


# How deserialize reads every top-level member but the version and the
# config, in the order _document writes them, each given its value, the
# checked config and ``plain()``, whether the text of the value or block
# read last is plain. The block lists stream: their value is a generator of
# decoded blocks when the member is read after the config.
_MEMBERS = {
    "a": lambda value, config, plain: _as_array(value, (config.p,), "a", plain()),
    "D_shared": lambda value, config, plain: _as_block_list(
        value, [(p, config.d_shared) for p in config.p_coupling], "D_shared", plain
    ),
    "D_local": lambda value, config, plain: _as_block_list(
        value, list(zip(config.p_coupling, config.d_local)), "D_local", plain
    ),
    "C_blocks": _as_coupling_blocks,
    "t": lambda value, config, plain: _as_float(value, "t"),
    "sigma_blocks": _as_uncertainty,
}
_STREAMED = ("D_shared", "D_local", "C_blocks", "sigma_blocks")


def _member(key):
    if key not in _MEMBERS:
        raise ProblemFormatError("unknown field", field=key)
    return _MEMBERS[key]


def deserialize(data: bytes | str) -> ScalableProblem:
    """Parse problem bytes written by :func:`serialize`.

    Integer fields (the version, the config integers and the block indices)
    must be JSON integers, and the threshold, the config floats and every
    array element JSON numbers; booleans are neither. Every float must be
    finite: ``json`` reads the tokens ``NaN`` and ``Infinity``, which
    :func:`serialize` never writes.

    How a file is read: the text is decoded whole, then its top-level object
    is read one member at a time, and each block list (every ``D_shared``,
    ``D_local`` and ``sigma_blocks`` block, every ``C_blocks`` triple) one
    block at a time, with json's own scanner. Each block is checked and
    converted to its array before the next one is decoded, so besides the
    text and the arrays only one block's Python floats exist at once. That
    needs the version and the config first, the order :func:`serialize`
    writes. A member that comes before them is decoded whole and checked
    once both have been read: a file in another key order loads and meets
    the same checks, at up to about three times its size in memory.

    The version and then the config are checked first, wherever they
    stand; every other member is checked in document order, and missing
    fields at the end of the object. So a file is refused for its first
    fault in that order, syntax errors included. A document that is not
    an object is decoded whole, as ``json.loads`` would decode it.

    Raises
    ------
    ProblemVersionError
        If the file declares a different format version.
    ProblemFormatError
        If a field is missing, malformed, unknown or repeated, or a coupling
        block is listed twice; the error names the field path, ``config``
        for the config object itself. Data that does not parse as UTF-8
        JSON, including nesting deeper than the interpreter's recursion
        limit, and a document that is not a JSON object name the field
        ``<root>``.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    except UnicodeDecodeError as exc:
        raise _invalid(exc) from exc
    scanner = _Scanner(text)
    if scanner.peek() != "{":
        scanner.value()
        scanner.end()
        raise ProblemFormatError("expected a JSON object", field="<root>")

    version = config = None
    members, held, seen = {}, {}, set()
    for key in scanner.members():
        if key in seen:
            raise ProblemFormatError("repeated field", field=key)
        seen.add(key)
        if key == "version":
            version = _as_version(scanner.value())
        elif config is None:
            held[key] = scanner.value(), scanner.plain()
        else:
            value = scanner.array() if key in _STREAMED else scanner.value()
            members[key] = _member(key)(value, config, scanner.plain)
        if version is not None and config is None and "config" in held:
            config = _as_config(held.pop("config")[0])
        if config is not None:
            for k in list(held):
                value, plain = held.pop(k)
                members[k] = _member(k)(value, config, lambda plain=plain: plain)
    for key, found in (("version", version), ("config", config)):
        if found is None:
            raise ProblemFormatError("missing required field", field=key)
    for key in _MEMBERS:
        if key not in members:
            raise ProblemFormatError("missing required field", field=key)
    scanner.end()

    return ScalableProblem(
        config=config,
        a=members["a"],
        D_shared=members["D_shared"],
        D_local=members["D_local"],
        C_blocks=members["C_blocks"],
        t=members["t"],
        uncertainty=members["sigma_blocks"],
    )


def problem_digest(problem: ScalableProblem) -> str:
    """SHA-256 hex digest of the canonical serialization.

    Equal to ``sha256(serialize(problem))``, but the text is hashed piece by
    piece as it is formatted, so the file is never held whole.
    """
    digest = hashlib.sha256()
    for piece in _pieces(_document(problem)):
        digest.update(piece)
    return digest.hexdigest()


def instance_digest(problem: ScalableProblem) -> str:
    """Fingerprint of the instance's bits: ``"bin1:"`` and a SHA-256 hex digest.

    The hashed content is one line of compact, key-sorted JSON holding the
    format version, the config, ``t`` as ``float.hex``, whether a noise model
    is present, the coupling-block keys and every array's shape, followed by
    every array in file order as little-endian float64 bytes. So two problems
    have the same digest exactly when they are equal (``==``): ``-0.0`` and
    ``0.0`` differ, while a file and its pretty-printed or key-sorted copy
    give the same digest. It formats no float, which makes it about 20 times
    cheaper than :func:`problem_digest`, the sha256 of the file.
    """
    arrays = _arrays(problem)
    header = {
        "version": FORMAT_VERSION,
        "config": asdict(problem.config),
        "t": float(problem.t).hex(),
        "noise": problem.uncertainty is not None,
        "C_blocks": sorted(problem.C_blocks),
        "shapes": [arr.shape for arr in arrays],
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"), default=int)
    digest = hashlib.sha256(text.encode("ascii") + b"\n")
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise ValueError("cannot fingerprint non-finite value")
        digest.update(np.ascontiguousarray(arr, dtype="<f8"))
    return "bin1:" + digest.hexdigest()
