"""Measurement matrices and restricted isometry / orthogonality constants.

``delta_exhaustive`` and ``theta_exhaustive`` return the exact constants: the
maximum over every column subset, or every disjoint pair of subsets, of the
requested sizes.  They are gated by a subset-count budget (default 2e6) that
counts every subset or pair, rather than by hard size caps.

Each constant is the largest spectral radius over a stack of symmetric
blocks: ``G_T - I`` for delta, and ``B B'`` with ``B = G[T1, T2]`` for theta
(``||B||_2^2`` is its spectral radius).  Computing the eigenvalues of every
block would be the whole cost, so each block first gets a cheap upper bound:
with ``f = ||X||_F`` and ``q = 2^k``, ``rho(X) <= f ||(X / f)^q||_F^(1/q)``,
which takes k batched squarings and overshoots ``rho(X)`` by a factor of at
most ``s^(1/(2q))`` on an s x s block.  Dividing by f keeps every power
between ``s^(-q/2)`` and 1 in Frobenius norm, so nothing underflows.  Blocks
are then visited in descending bound, and only those whose bound beats the
running maximum get their eigenvalues computed, by the same gather and
``eigvalsh`` as a full enumeration would use; the first block whose bound
does not beat it ends the visit.

``delta_exhaustive`` adds a level above the blocks, over prefix groups.  A
group holds the size-S subsets that share their first ``p = S // 2``
indices; they all lie in U, the prefix plus every index above its last one.
Each ``G_T - I`` is then a principal submatrix of ``G_U - I``, and by Cauchy
interlacing ``rho(G_T - I) <= rho(G_U - I)``, so the power bound on ``G_U -
I`` caps every block of the group.  Groups are visited in descending cap:
the first visit takes one group, so the running maximum is set early, and
later visits take groups until their subsets fill one chunk, so a design
that prunes nothing makes about as many batched calls as a plain
enumeration.  A group wider than ``4 S`` columns is visited without a bound,
because its bound costs more than its blocks' own and cannot come near
delta_S.  With no more than one chunk of subsets the group level is skipped:
there the group bounds cost more than they save (delta_2 to delta_4 at m =
16 took 0.2-0.7 ms longer with them).  Group bounds are gathered in slices
of no more entries than a chunk of S-column blocks, and both index tables
hold at most C(m, S) rows, so no array outgrows a plain enumeration's.

``theta_exhaustive`` does the same one level up, over left subsets.  For a
left subset T1 with complement C, every block ``G[T1, T2]`` with T2 in C has
a squared spectral norm of at most ``beta(T1)^2``, the smaller of the power
bound on ``G[T1, C] G[C, T1]`` (dropping columns cannot raise a spectral
norm) and the sum of the Sp largest squared column norms of ``G[T1, C]``
(the squared Frobenius norm bounds the squared spectral norm).  Left subsets
are visited in descending bound, and a left subset whose bound cannot beat
the running maximum is skipped with all its right subsets.

The results stay exact, bit for bit.  A block or group is skipped only when
its bound, widened by a relative slack of 1e-9, does not exceed the computed
maximum.  Rounding moves the bound on an s-column matrix by a small multiple
of ``s^1.5 eps`` relative (a symmetric Y has ``||Y^2||_F >= ||Y||_F^2 /
sqrt(s)``, so nothing cancels), and an ``eigvalsh`` value by a small
multiple of ``s eps`` times the block's norm; both are far inside that
slack, so a skipped block can never carry the computed maximum; for delta
the slack is taken relative to ``||G_T|| <= 1 + bound``, because that is the
scale at which ``eigvalsh`` of ``G_T`` rounds.
Every block that can carry it goes through the same arithmetic as in a full
enumeration, and the eigenvalues of a block do not depend on the other
blocks stacked with it.  A design whose constant is below the slack (one
with orthonormal columns, say) prunes nothing and still returns the exact
value.

The ``*_sampled`` variants maximise over random subsets only; their output is
a lower bound on the true constant and is flagged as such, because any bound
computed from an under-estimated constant is optimistic.  Both draw one block
of ``trials`` random permutations of ``range(m)`` from ``seed``: delta_S takes
the first S entries of each row, and theta_{S,S'} pairs the first S with the
last S'.  A sampled entry therefore depends only on the matrix, its sizes,
``trials`` and ``seed``, and the subsets are nested across sizes.  They
prune their blocks like the exhaustive ones, so each equals the maximum over
every block it draws.

Both constants are monotone: enlarging a column subset can only widen the
eigenvalue range of its Gram block, and a submatrix spectral norm never
exceeds that of the enclosing matrix.  Enumerating subsets of exactly the
requested size therefore yields the constant for "all subsets up to that
size".

A table built by :func:`build_rip_table` is bound to its matrix and computes
any defined entry the first time it is read, so no caller lists the
constants a check will need.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterator

import numpy as np

from .config import ConfigReader

DEFAULT_SUBSET_BUDGET = 2_000_000
#: blocks gathered at a time; the power bound holds a few temporaries of this
#: many blocks
_CHUNK = 2_000
#: squarings k of the power bound, ``q = 2^k``
_SQUARINGS = 3
#: a delta prefix group wider than this many times S columns is not bounded
_GROUP_WIDTH = 4
_COLUMN_NORM_TOL = 1e-12
#: a block is skipped when its bound, widened to ``(1 + rtol) bound + atol``
#: (``+ rtol`` instead of ``+ atol`` for delta), does not exceed the running
#: max; see the module docstring
_PRUNE_RTOL = 1e-9
_PRUNE_ATOL = float(np.finfo(float).tiny)


class EnumerationBudgetExceeded(RuntimeError):
    """Exhaustive subset enumeration would exceed the configured budget."""


class InsufficientRipTable(KeyError):
    """A bound or scan needs constants the table does not contain."""


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """An n x m measurement matrix with unit Euclidean-norm columns.

    ``entries`` is a read-only copy of the input, so the Gram matrix can be
    computed once and shared.  Equality and hashing are by identity.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        if not np.isfinite(a).all():
            # a NaN block bound compares false and would be pruned unseen
            raise ValueError("entries must be finite")
        norms = np.linalg.norm(a, axis=0)
        if np.any(np.abs(norms - 1.0) > _COLUMN_NORM_TOL):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(f"columns must have unit norm (worst deviation {worst:.3e})")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_columns(cls, raw: np.ndarray) -> "MeasurementMatrix":
        """Build from an arbitrary matrix by rescaling each column to unit norm."""
        raw = np.asarray(raw, dtype=float)
        if not np.isfinite(raw).all():
            raise ValueError("entries must be finite")
        norms = np.linalg.norm(raw, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize a zero column")
        return cls(raw / norms)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    @property
    def induced_one_norm(self) -> float:
        """Max absolute column sum."""
        return float(np.max(np.sum(np.abs(self.entries), axis=0)))

    def gram(self) -> np.ndarray:
        """``A'A`` as a read-only array, computed on the first call and cached."""
        gram = self.__dict__.get("_gram")
        if gram is None:
            gram = self.entries.T @ self.entries
            gram.setflags(write=False)
            object.__setattr__(self, "_gram", gram)
        return gram

    def columns(self, indices) -> np.ndarray:
        idx = indices.to_array() if hasattr(indices, "to_array") else np.asarray(indices, dtype=np.intp)
        return self.entries[:, idx]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.entries).tobytes())
        h.update(str(self.entries.shape).encode())
        return h.hexdigest()


def gen_gaussian_matrix(n: int, m: int, seed: int) -> MeasurementMatrix:
    """Random matrix with i.i.d. standard normal entries, columns rescaled to
    unit norm.  Deterministic per seed."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = np.random.default_rng(seed)
    return MeasurementMatrix.from_columns(rng.standard_normal((n, m)))


def gen_perturbed_orthonormal_matrix(
    n: int, m: int, seed: int, noise_scale: float = 0.2
) -> MeasurementMatrix:
    """Rows of a random orthogonal matrix plus scaled Gaussian noise, columns
    normalized.

    Small instances of this ensemble have small isometry constants, unlike
    plain Gaussian matrices whose constants at m <= 16 are nearly always too
    large for any of the error bounds to apply.  Used by the bound-validation
    harness; requires n <= m.
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((m, m)))[0][:n, :]
    raw = q + noise_scale * rng.standard_normal((n, m)) / np.sqrt(n)
    return MeasurementMatrix.from_columns(raw)


def gen_matrix(kind: str, n: int, m: int, seed: int, noise_scale: float = 0.2) -> MeasurementMatrix:
    """Matrix of the named ensemble, ``"gaussian"`` or
    ``"perturbed_orthonormal"``; ``noise_scale`` only applies to the latter."""
    if kind == "gaussian":
        return gen_gaussian_matrix(n, m, seed)
    if kind == "perturbed_orthonormal":
        return gen_perturbed_orthonormal_matrix(n, m, seed, noise_scale)
    raise ValueError(f"unknown matrix kind {kind!r}")


def _subsets(n: int, k: int, rows: int) -> Iterator[np.ndarray]:
    """Size-``k`` subsets of ``range(n)`` in lexicographic order, each row
    sorted, as ``intp`` blocks of at most ``rows`` rows."""
    total = math.comb(n, k)
    flat = chain.from_iterable(combinations(range(n), k))
    for lo in range(0, total, rows):
        size = min(rows, total - lo)
        yield np.fromiter(flat, dtype=np.intp, count=size * k).reshape(size, k)


def _complements(subsets: np.ndarray, m: int) -> np.ndarray:
    """Sorted complement in ``range(m)`` of each row of ``subsets``."""
    keep = np.ones((len(subsets), m), dtype=bool)
    np.put_along_axis(keep, subsets, False, axis=1)
    return np.nonzero(keep)[1].reshape(len(subsets), m - subsets.shape[1])


def _radius_bounds(X: np.ndarray) -> np.ndarray:
    """Upper bound on the spectral radius of each stacked symmetric block of
    ``X``: ``f ||(X / f)^q||_F^(1/q)`` with ``f = ||X||_F`` and ``q =
    2^_SQUARINGS``, taken by repeated squaring."""
    f = np.sqrt(np.einsum("bij,bij->b", X, X))
    Y = X * (1.0 / np.where(f > 0.0, f, 1.0))[:, None, None]
    for _ in range(_SQUARINGS):
        Y = Y @ Y
    return f * np.einsum("bij,bij->b", Y, Y) ** (0.5 / 2 ** _SQUARINGS)


def _squared_norm_bounds(blocks: np.ndarray) -> np.ndarray:
    """Upper bound on the squared spectral norm of each stacked block, from
    its smaller Gram side."""
    flipped = np.swapaxes(blocks, 1, 2)
    side = blocks @ flipped if blocks.shape[1] <= blocks.shape[2] else flipped @ blocks
    return _radius_bounds(side)


def _norm_caps(squared: np.ndarray) -> np.ndarray:
    """Caps on computed spectral norms from bounds on their squares."""
    return np.sqrt(squared * (1.0 + _PRUNE_RTOL) + _PRUNE_ATOL)


def _pruned_max(caps: np.ndarray, evaluate, worst: float, growth: int = 2) -> float:
    """``worst`` raised to the largest computed value over stacked blocks,
    given a cap on each block's computed value.

    Blocks are visited in descending cap, in batches of 1, ``growth``,
    ``growth^2``, ... blocks; ``evaluate(idx, worst)`` returns the max of
    ``worst`` and the values of the blocks ``idx``.  The visit stops at the
    first block whose cap does not exceed the running max, since neither it
    nor any later block can raise it.
    """
    live = np.flatnonzero(caps > worst)
    order = live[np.argsort(-caps[live], kind="stable")]
    lo, size = 0, 1
    while lo < len(order) and caps[order[lo]] > worst:
        worst = evaluate(order[lo:lo + size], worst)
        lo, size = lo + size, growth * size
    return worst


def _delta_max(gram: np.ndarray, shifted: np.ndarray, subsets: np.ndarray, worst: float) -> float:
    """``worst`` raised to the largest deviation of a Gram block's
    eigenvalues from 1 over stacked subsets; ``shifted`` is ``gram - I``."""
    bounds = _radius_bounds(shifted[subsets[:, :, None], subsets[:, None, :]])

    def evaluate(idx, worst):
        t = subsets[idx]
        w = np.linalg.eigvalsh(gram[t[:, :, None], t[:, None, :]])
        return max(worst, float(np.max(np.maximum(1.0 - w[:, 0], w[:, -1] - 1.0))))

    return _pruned_max(_delta_caps(bounds), evaluate, worst)


def _delta_caps(bounds: np.ndarray) -> np.ndarray:
    """Caps on computed deviations from bounds on ``rho(G_T - I)``; the
    eigenvalues of ``G_T`` round relative to ``||G_T|| <= 1 + bound``."""
    return bounds * (1.0 + _PRUNE_RTOL) + _PRUNE_RTOL


def _pairs_max(gram: np.ndarray, lefts: np.ndarray, rights: np.ndarray, worst: float) -> float:
    """``worst`` raised to the largest spectral norm of a Gram block
    ``gram[T1, T2]`` over stacked pairs; ``lefts`` is (b, S), or (S,) for one
    left subset shared by every pair."""
    blocks = gram[lefts[..., :, None], rights[:, None, :]]

    def evaluate(idx, worst):
        b = blocks[idx]
        w = np.linalg.eigvalsh(b @ np.swapaxes(b, 1, 2))[:, -1]
        return max(worst, float(np.max(np.sqrt(np.maximum(w, 0.0)))))

    return _pruned_max(_norm_caps(_squared_norm_bounds(blocks)), evaluate, worst)


def delta_exhaustive(
    A: MeasurementMatrix, S: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> float:
    """Exact S-restricted isometry constant over all size-S subsets.

    Above ``_CHUNK`` subsets they are visited by prefix group (see the module
    docstring).  A group's subsets are its prefix followed by each ``(S -
    p)``-subset above the prefix's last index, a contiguous tail of one
    lexicographic table of the ``(S - p)``-subsets of ``range(p, m)``.
    """
    if S < 0 or S > A.m:
        raise ValueError(f"S={S} out of range [0, {A.m}]")
    if S == 0:
        return 0.0
    count = math.comb(A.m, S)
    if count > budget:
        raise EnumerationBudgetExceeded(
            f"C({A.m},{S}) = {count} subsets exceeds budget {budget}"
        )
    m, p = A.m, S // 2
    gram = A.gram()
    shifted = gram - np.eye(m)
    if count <= _CHUNK or p == 0:
        worst = 0.0
        for subsets in _subsets(m, S, _CHUNK):
            worst = _delta_max(gram, shifted, subsets, worst)
        return worst
    # the last prefix index leaves room for S - p indices above it and is at
    # least p - 1, so no suffix starts below p; both tables hold at most
    # C(m, S) rows
    (prefixes,) = _subsets(m - (S - p), p, math.comb(m - (S - p), p))
    (suffixes,) = _subsets(m - p, S - p, math.comb(m - p, S - p))
    suffixes += p
    starts = np.searchsorted(suffixes[:, 0], prefixes[:, -1] + 1)
    sizes = len(suffixes) - starts
    caps = _group_caps(shifted, prefixes, S)
    order = np.argsort(-caps, kind="stable")
    worst, lo = 0.0, 0
    while lo < len(order) and caps[order[lo]] > worst:
        hi, rows = lo + 1, sizes[order[lo]]
        while (lo > 0 and hi < len(order) and caps[order[hi]] > worst
               and rows + sizes[order[hi]] <= _CHUNK):
            rows += sizes[order[hi]]
            hi += 1
        groups = order[lo:hi]
        counts = sizes[groups]
        # row j of a group is its prefix and the suffix j past the group's start
        tails = np.arange(rows) + np.repeat(starts[groups] - np.cumsum(counts) + counts, counts)
        leaves = np.hstack([np.repeat(prefixes[groups], counts, axis=0), suffixes[tails]])
        for first in range(0, len(leaves), _CHUNK):
            worst = _delta_max(gram, shifted, leaves[first:first + _CHUNK], worst)
        lo = hi
    return worst


def _group_caps(shifted: np.ndarray, prefixes: np.ndarray, S: int) -> np.ndarray:
    """Cap on the computed delta of every subset in each prefix's group: the
    bound on ``G_U - I``, U the prefix plus every index above its last one,
    or infinity when U has more than ``_GROUP_WIDTH * S`` columns."""
    m = len(shifted)
    last = prefixes[:, -1]
    caps = np.full(len(prefixes), np.inf)
    for top in np.unique(last):
        rest = np.arange(top + 1, m)
        width = prefixes.shape[1] + len(rest)
        if width > _GROUP_WIDTH * S:
            continue
        (group,) = np.nonzero(last == top)
        # slices gather no more entries than a chunk of S-column leaf blocks
        step = max(1, _CHUNK * S * S // (width * width))
        for lo in range(0, len(group), step):
            rows = group[lo:lo + step]
            span = np.hstack([prefixes[rows], np.broadcast_to(rest, (len(rows), len(rest)))])
            caps[rows] = _delta_caps(_radius_bounds(shifted[span[:, :, None], span[:, None, :]]))
    return caps


def theta_exhaustive(
    A: MeasurementMatrix, S: int, Sp: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> float:
    """Exact restricted orthogonality constant over all disjoint subset pairs
    of sizes (S, Sp).

    The budget counts every pair.  Left subsets come in batches that gather
    no more Gram entries than ``_CHUNK`` pairs do, and are visited in
    descending bound until the bound cannot beat the running max.  Their
    right subsets are fixed offsets into the sorted complement, taken
    ``_CHUNK`` at a time.  When ``S == Sp`` each unordered pair is visited
    once, with the lexicographically smaller subset on the left (disjoint
    sorted subsets differ in their first element).
    """
    if S < 0 or Sp < 0:
        raise ValueError("subset sizes must be nonnegative")
    if S + Sp > A.m:
        raise ValueError(f"S + Sp = {S + Sp} exceeds m = {A.m}")
    if S == 0 or Sp == 0:
        return 0.0
    count = math.comb(A.m, S) * math.comb(A.m - S, Sp)
    if S == Sp:
        count //= 2  # unordered pairs; the block norm is symmetric
    if count > budget:
        raise EnumerationBudgetExceeded(
            f"{count} disjoint subset pairs exceeds budget {budget}"
        )
    m = A.m
    gram = A.gram()
    (offsets,) = _subsets(m - S, Sp, math.comb(m - S, Sp))
    worst = 0.0
    for lefts in _subsets(m, S, max(1, _CHUNK * Sp // (m - S))):
        rest = _complements(lefts, m)
        cross = gram[lefts[:, :, None], rest[:, None, :]]
        frob2 = np.sort(np.square(cross).sum(axis=1), axis=1)[:, -Sp:].sum(axis=1)
        caps = _norm_caps(np.minimum(_squared_norm_bounds(cross), frob2))

        def evaluate(idx, worst):
            for i in idx:
                # the complement holds every index below lefts[i, 0], so right
                # subsets whose first index is above it start at that offset
                first = np.searchsorted(offsets[:, 0], lefts[i, 0]) if S == Sp else 0
                for lo in range(first, len(offsets), _CHUNK):
                    worst = _pairs_max(gram, lefts[i], rest[i][offsets[lo:lo + _CHUNK]], worst)
            return worst

        # one left subset at a time: each visit is a pruned search itself
        worst = _pruned_max(caps, evaluate, worst, growth=1)
    return worst


@lru_cache(maxsize=4)
def _permutations(m: int, trials: int, seed: int) -> np.ndarray:
    """``trials`` independent random permutations of ``range(m)``, one per row.

    Every entry of a sampled table reads the same block, so it is drawn once
    and shared read-only.
    """
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.tile(np.arange(m, dtype=np.intp), (trials, 1)), axis=1)
    perms.flags.writeable = False
    return perms


def delta_sampled(A: MeasurementMatrix, S: int, trials: int, seed: int) -> float:
    """Lower bound on the isometry constant from random size-S subsets: the
    first S entries of each row of the seed's permutation block."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if S < 0 or S > A.m:
        raise ValueError(f"S={S} out of range [0, {A.m}]")
    if S == 0:
        return 0.0
    perms = _permutations(A.m, trials, seed)
    gram = A.gram()
    shifted = gram - np.eye(A.m)
    worst = 0.0
    for lo in range(0, trials, _CHUNK):
        worst = _delta_max(gram, shifted, perms[lo:lo + _CHUNK, :S], worst)
    return worst


def theta_sampled(A: MeasurementMatrix, S: int, Sp: int, trials: int, seed: int) -> float:
    """Lower bound on the orthogonality constant from random disjoint pairs:
    the first S and the last Sp entries of each row of the seed's
    permutation block."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if S + Sp > A.m:
        raise ValueError(f"S + Sp = {S + Sp} exceeds m = {A.m}")
    if S == 0 or Sp == 0:
        return 0.0
    perms = _permutations(A.m, trials, seed)
    gram = A.gram()
    worst = 0.0
    for lo in range(0, trials, _CHUNK):
        block = perms[lo:lo + _CHUNK]
        worst = _pairs_max(gram, block[:, :S], block[:, A.m - Sp:], worst)
    return worst


@dataclass(frozen=True)
class RipEntry:
    value: float
    exact: bool


class RipTable:
    """Isometry and orthogonality constants for one matrix, with provenance.

    Entries flagged ``exact=False`` came from subset sampling and are lower
    bounds on the true constants; every consumer must propagate that flag so
    downstream reports can be marked optimistic.

    A table from :func:`build_rip_table` is bound to its matrix: reading a
    missing entry whose sizes fit in m computes and stores it.  Any other
    table (loaded from a file, or filled by hand) holds only what was set,
    and reading a missing entry raises :class:`InsufficientRipTable`.
    """

    def __init__(self, matrix_digest: str = ""):
        self.matrix_digest = matrix_digest
        self._delta: dict[int, RipEntry] = {}
        self._theta: dict[tuple[int, int], RipEntry] = {}
        self._source: tuple | None = None   # (A, exact, budget, trials, seed)

    # -- writes ---------------------------------------------------------

    def set_delta(self, S: int, value: float, exact: bool) -> None:
        self._delta[int(S)] = RipEntry(float(value), bool(exact))

    def set_theta(self, S: int, Sp: int, value: float, exact: bool) -> None:
        self._theta[(int(S), int(Sp))] = RipEntry(float(value), bool(exact))

    def _computable(self, columns: int) -> bool:
        return self._source is not None and columns <= self._source[0].m

    # The constant functions are looked up as module globals on every call,
    # so a rebound name (a profiler's wrapper, say) is the one that runs.

    def _compute_delta(self, S: int) -> RipEntry:
        A, exact, budget, trials, seed = self._source
        value = delta_exhaustive(A, S, budget=budget) if exact else delta_sampled(A, S, trials, seed)
        self.set_delta(S, value, exact)
        return self._delta[S]

    def _compute_theta(self, S: int, Sp: int) -> RipEntry:
        A, exact, budget, trials, seed = self._source
        value = theta_exhaustive(A, S, Sp, budget=budget) if exact else theta_sampled(A, S, Sp, trials, seed)
        self.set_theta(S, Sp, value, exact)
        return self._theta[(S, Sp)]

    # -- reads ----------------------------------------------------------

    def delta(self, S: int) -> RipEntry:
        if S == 0:
            return RipEntry(0.0, True)
        if S in self._delta:
            return self._delta[S]
        if not self._computable(S):
            raise InsufficientRipTable(f"delta_{S} missing from table")
        return self._compute_delta(S)

    def theta(self, S: int, Sp: int) -> RipEntry:
        if S == 0 or Sp == 0:
            return RipEntry(0.0, True)
        if (S, Sp) in self._theta:
            return self._theta[(S, Sp)]
        if not self._computable(S + Sp):
            raise InsufficientRipTable(f"theta_{{{S},{Sp}}} missing from table")
        return self._compute_theta(S, Sp)

    def validate_monotone(self) -> None:
        """Check the defining-maxima monotonicity across stored entries."""
        sizes = sorted(self._delta)
        for a, b in zip(sizes, sizes[1:]):
            if self._delta[a].value > self._delta[b].value + 1e-12:
                raise ValueError(f"delta not monotone: delta_{a} > delta_{b}")
        for (s, sp), e in self._theta.items():
            for (s2, sp2), e2 in self._theta.items():
                if s2 >= s and sp2 >= sp and e2.value < e.value - 1e-12:
                    raise ValueError(
                        f"theta not monotone: theta_{{{s},{sp}}} > theta_{{{s2},{sp2}}}"
                    )

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "matrix_digest": self.matrix_digest,
            "delta": {str(s): [e.value, e.exact] for s, e in sorted(self._delta.items())},
            "theta": {
                f"{s},{sp}": [e.value, e.exact]
                for (s, sp), e in sorted(self._theta.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RipTable":
        """The table that :meth:`to_json_dict` wrote.  Each entry must be a
        ``[value, exact]`` pair of a finite nonnegative number and a bool;
        a bad entry or an unknown key raises :class:`ConfigError`."""
        with ConfigReader(doc) as r:
            table = cls(r.value("matrix_digest", "", str))
            delta, theta = r.obj("delta", {}), r.obj("theta", {})
            for key in delta.doc:
                entry = delta.obj(key, kind=list)
                table.set_delta(*_table_sizes(key, 1), entry.float(0), entry.bool(1))
            for key in theta.doc:
                entry = theta.obj(key, kind=list)
                table.set_theta(*_table_sizes(key, 2), entry.float(0), entry.bool(1))
        return table


def _table_sizes(key: str, count: int) -> list[int]:
    """The ``count`` positive sizes of a table key such as ``"2"`` or ``"1,2"``."""
    sizes = key.split(",")
    if len(sizes) != count or not all(s.isdigit() and int(s) > 0 for s in sizes):
        raise ValueError(f"table key {key!r} is not {count} positive size(s)")
    return [int(s) for s in sizes]


def build_rip_table(
    A: MeasurementMatrix,
    mode: str = "exact",
    budget: int = DEFAULT_SUBSET_BUDGET,
    trials: int = 2000,
    seed: int = 0,
) -> RipTable:
    """A table bound to ``A`` that computes each defined entry the first time
    it is read.

    ``mode="exact"`` enumerates (raises if over budget).  ``mode="sampled"``
    maximises over ``trials`` random subsets drawn from ``seed``, the same for
    every entry; the subsets are nested across sizes, so the sampled lower
    bounds are monotone as they stand.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    table = RipTable(A.digest())
    table._source = (A, mode == "exact", budget, trials, seed)
    return table
