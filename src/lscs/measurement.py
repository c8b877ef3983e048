"""Measurement matrices and restricted isometry / orthogonality constants.

``delta_exhaustive`` and ``theta_exhaustive`` return the exact constants: the
maximum over every column subset, or every disjoint pair of subsets, of the
requested sizes.  They are gated by a subset-count budget (default 2e6) that
counts every subset or pair, rather than by hard size caps.

``delta_exhaustive`` takes the eigenvalues of every Gram block.
``theta_exhaustive`` is a branch and bound over left subsets.  For a left
subset T1 with complement C, every block ``G[T1, T2]`` with T2 in C has a
squared spectral norm of at most ``beta(T1)^2``, the smaller of
``lambda_max(G[T1, C] G[C, T1])`` (dropping columns cannot raise a spectral
norm) and the sum of the Sp largest squared column norms of ``G[T1, C]``
(the squared Frobenius norm bounds the squared spectral norm).  Left subsets
are visited in descending bound within each batch, and a left subset whose
bound cannot beat the running maximum is skipped with all its right subsets.
The result stays exact, bit for bit: the bound carries a slack far above the
rounding of either computed quantity, so a skipped pair can never carry the
computed maximum, and every visited pair goes through the same gather,
product and ``eigvalsh`` as in a full enumeration.

The ``*_sampled`` variants maximise over random subsets only; their output is
a lower bound on the true constant and is flagged as such, because any bound
computed from an under-estimated constant is optimistic.  Both draw one block
of ``trials`` random permutations of ``range(m)`` from ``seed``: delta_S takes
the first S entries of each row, and theta_{S,S'} pairs the first S with the
last S'.  A sampled entry therefore depends only on the matrix, its sizes,
``trials`` and ``seed``, and the subsets are nested across sizes.

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
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_SUBSET_BUDGET = 2_000_000
_CHUNK = 20_000
_COLUMN_NORM_TOL = 1e-12
#: ``theta_exhaustive`` skips a left subset when ``(1 + rtol) beta^2 + atol``
#: does not exceed the square of the running max.  The computed largest
#: eigenvalue of any ``B B'`` exceeds the computed bound by a few hundred ulps
#: at most for any block size a subset budget admits, so a skipped pair can
#: never carry the computed maximum.
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


def _gram_deviation_max(gram: np.ndarray, subsets: np.ndarray) -> float:
    """Worst deviation of Gram-block eigenvalues from 1 over stacked subsets."""
    blocks = gram[subsets[:, :, None], subsets[:, None, :]]
    w = np.linalg.eigvalsh(blocks)
    return float(np.max(np.maximum(1.0 - w[:, 0], w[:, -1] - 1.0)))


def _block_specnorms(gram: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Spectral norm of each Gram block ``gram[T1, T2]`` over stacked pairs;
    ``lefts`` is (b, S), or (S,) for one left subset shared by every pair."""
    blocks = gram[lefts[..., :, None], rights[:, None, :]]
    outer = blocks @ np.swapaxes(blocks, 1, 2)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(outer)[:, -1], 0.0))


def delta_exhaustive(
    A: MeasurementMatrix, S: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> float:
    """Exact S-restricted isometry constant by enumerating all size-S subsets."""
    if S < 0 or S > A.m:
        raise ValueError(f"S={S} out of range [0, {A.m}]")
    if S == 0:
        return 0.0
    count = math.comb(A.m, S)
    if count > budget:
        raise EnumerationBudgetExceeded(
            f"C({A.m},{S}) = {count} subsets exceeds budget {budget}"
        )
    gram = A.gram()
    worst = 0.0
    for block in _subsets(A.m, S, _CHUNK):
        worst = max(worst, _gram_deviation_max(gram, block))
    return worst


def theta_exhaustive(
    A: MeasurementMatrix, S: int, Sp: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> float:
    """Exact restricted orthogonality constant over all disjoint subset pairs
    of sizes (S, Sp).

    The budget counts every pair.  Left subsets come in batches that gather
    no more Gram entries than ``_CHUNK`` pairs do; within a batch they are
    visited in descending bound until the bound cannot beat the running max.
    Their right subsets are fixed offsets into the sorted complement, taken
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
        spec2 = np.linalg.eigvalsh(cross @ np.swapaxes(cross, 1, 2))[:, -1]
        colsq = np.square(cross).sum(axis=1)
        frob2 = np.sort(colsq, axis=1)[:, -Sp:].sum(axis=1)
        bound = np.minimum(spec2, frob2) * (1.0 + _PRUNE_RTOL) + _PRUNE_ATOL
        for i in np.argsort(-bound):
            if bound[i] <= worst * worst:
                break
            # the complement holds every index below lefts[i, 0], so right
            # subsets whose first index is above it start at that offset
            first = np.searchsorted(offsets[:, 0], lefts[i, 0]) if S == Sp else 0
            for lo in range(first, len(offsets), _CHUNK):
                rights = rest[i][offsets[lo:lo + _CHUNK]]
                worst = max(worst, float(np.max(_block_specnorms(gram, lefts[i], rights))))
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
    worst = 0.0
    for lo in range(0, trials, _CHUNK):
        worst = max(worst, _gram_deviation_max(gram, perms[lo:lo + _CHUNK, :S]))
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
        worst = max(worst, float(np.max(_block_specnorms(gram, block[:, :S], block[:, A.m - Sp:]))))
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

    def has_delta(self, S: int) -> bool:
        return S == 0 or S in self._delta or self._computable(S)

    def has_theta(self, S: int, Sp: int) -> bool:
        return S == 0 or Sp == 0 or (S, Sp) in self._theta or self._computable(S + Sp)

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

    @property
    def delta_entries(self) -> dict[int, RipEntry]:
        return dict(self._delta)

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
        table = cls(doc.get("matrix_digest", ""))
        for s, (value, exact) in doc.get("delta", {}).items():
            table.set_delta(int(s), value, exact)
        for key, (value, exact) in doc.get("theta", {}).items():
            s, sp = key.split(",")
            table.set_theta(int(s), int(sp), value, exact)
        return table

    @classmethod
    def from_json(cls, text: str) -> "RipTable":
        return cls.from_json_dict(json.loads(text))


def build_rip_table(
    A: MeasurementMatrix,
    delta_sizes: Sequence[int],
    theta_pairs: Iterable[tuple[int, int]],
    mode: str = "exact",
    budget: int = DEFAULT_SUBSET_BUDGET,
    trials: int = 2000,
    seed: int = 0,
) -> RipTable:
    """A table bound to ``A`` holding the listed constants.

    The listed entries are computed now; any other defined entry is computed
    the first time it is read.  ``mode="exact"`` enumerates (raises if over
    budget).  ``mode="sampled"`` maximises over ``trials`` random subsets
    drawn from ``seed``, the same for every entry; the subsets are nested
    across sizes, so the sampled lower bounds are monotone as they stand.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    table = RipTable(A.digest())
    table._source = (A, mode == "exact", budget, trials, seed)
    for s in sorted({int(s) for s in delta_sizes if s > 0}):
        table._compute_delta(s)
    for s, sp in sorted({(int(s), int(sp)) for s, sp in theta_pairs if s > 0 and sp > 0}):
        table._compute_theta(s, sp)
    return table


def s_star_s_starstar(rip: RipTable, scan_limit: int) -> tuple[int, int]:
    """Support-size thresholds under which the error bounds operate.

    Returns ``(s_star, s_starstar)`` scanned up to ``scan_limit``:
    ``s_star`` is the largest S with ``delta_S < 1/2`` and ``s_starstar`` the
    largest S with ``delta_2S + theta_{S,2S} < 1``.  Either is 0 when the
    condition already fails at S=1.  Raises :class:`InsufficientRipTable` if
    an entry is missing before the scan resolves.
    """
    if scan_limit < 1:
        raise ValueError("scan_limit must be >= 1")
    s_star = 0
    for s in range(1, scan_limit + 1):
        if not rip.has_delta(s):
            raise InsufficientRipTable(f"delta_{s} missing (s_star scan)")
        if rip.delta(s).value < 0.5:
            s_star = s
        else:
            break
    s_starstar = 0
    for s in range(1, scan_limit + 1):
        if not (rip.has_delta(2 * s) and rip.has_theta(s, 2 * s)):
            raise InsufficientRipTable(
                f"delta_{2*s} or theta_{{{s},{2*s}}} missing (s_starstar scan)"
            )
        if rip.delta(2 * s).value + rip.theta(s, 2 * s).value < 1.0:
            s_starstar = s
        else:
            break
    return s_star, s_starstar
