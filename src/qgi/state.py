"""Branch-list state engine over named registers.

A state stores only its nonzero branches: sorted, unique basis indices
and their complex amplitudes.  States are immutable from the caller's
point of view: every operation returns a fresh ``QuantumState``.
"""

from __future__ import annotations

import math

import numpy as np

from .registers import RegisterLayout, check_budget

NORM_TOL = 1e-12
COLLAPSE_FLOOR = 1e-15
_NORM_CHUNK = 1 << 17  # floats squared at a time: 1 MB


def _norm_sq(values: np.ndarray) -> float:
    """Squared norm of contiguous complex amplitudes by pairwise summation.

    Its rounding error grows with log2(n) rather than with n, as a BLAS
    dot product's does (Higham, Accuracy and Stability of Numerical
    Algorithms, section 4.2), so a state of millions of branches still
    passes the 1e-12 norm check.  Fixed chunks are summed pairwise and
    their sums combined pairwise, which keeps that bound without squaring
    every float at once; a state of up to 2^16 branches is one chunk.
    """
    floats = values.view(np.float64)
    if len(floats) <= _NORM_CHUNK:
        return float(np.add.reduce(np.square(floats)))
    sums = [np.add.reduce(np.square(floats[start:start + _NORM_CHUNK]))
            for start in range(0, len(floats), _NORM_CHUNK)]
    return float(np.add.reduce(np.array(sums)))


class QuantumState:
    """Normalized state over a register layout, held as its nonzero branches.

    Build one with ``from_branches``; ``amplitudes`` is a dense view
    built on each access.
    """

    __slots__ = ("layout", "indices", "values")

    @classmethod
    def from_branches(cls, layout: RegisterLayout, indices: np.ndarray,
                      values: np.ndarray) -> "QuantumState":
        """State from distinct basis indices, in any order, and their amplitudes.

        Strictly increasing indices and their amplitudes are kept without
        a copy, so the caller must not write to those arrays afterwards.
        """
        state = cls._moved(layout, indices, values)
        norm_sq = _norm_sq(state.values)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm_sq!r} is not 1 within {NORM_TOL}")
        return state

    @classmethod
    def _moved(cls, layout: RegisterLayout, indices: np.ndarray,
               values: np.ndarray) -> "QuantumState":
        """``from_branches`` without the norm check, for the values of a
        checked state moved to new indices.  Indices not strictly
        increasing are sorted and checked for a repeat; no step of a
        protocol run gives such indices (see ``qgi.oracles``)."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128)
        # count_nonzero, not ndarray.all, whose Python wrapper costs about
        # a microsecond on each of the small states a run builds.
        if np.count_nonzero(indices[1:] <= indices[:-1]):
            order = np.argsort(indices)
            indices = indices[order]
            clash = np.flatnonzero(indices[1:] == indices[:-1])
            if clash.size:
                raise ValueError(f"two branches land on basis index {indices[clash[0]]}: "
                                 f"the map is not injective on the state's support")
            values = values[order]
        state = cls.__new__(cls)
        state.layout, state.indices, state.values = layout, indices, values
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense, read-only amplitude vector of length ``layout.dim``, built
        on each access."""
        check_budget(self.layout.total_qubits, "dense view")
        dense = np.zeros(self.layout.dim, dtype=np.complex128)
        dense[self.indices] = self.values
        dense.flags.writeable = False
        return dense

    def branch_probabilities(self) -> np.ndarray:
        """Probability of each stored branch, aligned with ``indices``."""
        return np.abs(self.values) ** 2

    def register_values(self, name: str) -> np.ndarray:
        """Value of one register in each stored branch."""
        return self.layout.extract(self.indices, name)

    def __repr__(self) -> str:
        n = np.count_nonzero(self.branch_probabilities() > 1e-14)
        return f"QuantumState({self.layout!r}, {n} nonzero branches)"


def xor_register(state: QuantumState, reg: str, values) -> QuantumState:
    """XOR ``values`` (one per branch, or one for all) into a register.

    Loading (``data ^= table[addr]``), the XOR oracle (``dst ^= src``) and
    tampering (``data ^= mask``) are all this map.  Values must not depend
    on ``reg`` itself, so the map is a bijection and its own inverse.
    """
    register = state.layout.register(reg)
    values = np.asarray(values, dtype=np.int64)
    if values.shape not in ((), (1,), state.indices.shape):
        raise ValueError(f"xor into {reg} got {values.size} values for "
                         f"{len(state.indices)} branches; give one or one per branch")
    if np.count_nonzero(values & ~register.mask):  # a negative value has high bits set
        raise ValueError(f"xor value exceeds register {reg} width {register.width}")
    # Branches only move, so their values keep the norm already checked.
    return QuantumState._moved(
        state.layout, state.indices ^ (values << register.offset), state.values)


def align(*states: QuantumState) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sorted union of the states' branch indices, and each state's values on it."""
    merged = np.sort(np.concatenate([s.indices for s in states]))
    support = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    aligned = [np.zeros(len(support), dtype=np.complex128) for _ in states]
    for values, s in zip(aligned, states):
        values[np.searchsorted(support, s.indices)] = s.values
    return support, aligned


def reflect(values: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """2|axis><axis| - I on amplitude arrays aligned with each other."""
    return 2.0 * np.vdot(axis, values) * axis - values


def tensor(low: QuantumState, high: QuantumState) -> QuantumState:
    """Compose two states; ``low``'s registers take the less significant bits.
    The norm is the product of the factors' checked norms, so no sum runs."""
    shift = low.layout.total_qubits
    indices = (high.indices[:, None] << shift) | low.indices[None, :]
    values = high.values[:, None] * low.values[None, :]
    return QuantumState._moved(low.layout.concat(high.layout),
                               indices.ravel(), values.ravel())


def register_distribution(state: QuantumState, reg: str
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Values one register takes in the state, ascending, and their probabilities.

    Only values present in some branch are listed, so no table of all
    2^width values is built; each probability is a pairwise sum.
    """
    values = state.register_values(reg)
    order = np.argsort(values, kind="stable")
    grouped = values[order]
    starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    return grouped[starts], np.add.reduceat(state.branch_probabilities()[order], starts)


def project(state: QuantumState, reg: str,
            outcome: int) -> tuple[float, QuantumState | None]:
    """Probability of one register outcome, and the state collapsed onto it.

    The collapsed state is renormalized by the norm of the branches it
    keeps; it is ``None`` when the probability is below COLLAPSE_FLOOR.
    Keeping every branch (an honest check) copies and re-sums nothing.
    """
    keep = state.register_values(reg) == outcome
    whole = np.count_nonzero(keep) == len(keep)
    kept = state.values if whole else state.values[keep]
    kept_sq = _norm_sq(kept)
    prob = 1.0 if whole else kept_sq / _norm_sq(state.values)
    if prob < COLLAPSE_FLOOR:
        return prob, None
    return prob, QuantumState.from_branches(
        state.layout, state.indices if whole else state.indices[keep],
        kept / math.sqrt(kept_sq))


def measure_register(state: QuantumState, reg: str,
                     rng: np.random.Generator) -> tuple[int, QuantumState]:
    """Sample one computational-basis outcome for a register and collapse."""
    outcomes, probs = register_distribution(state, reg)
    # The draw ``rng.choice(len(outcomes), p=probs / probs.sum())`` makes:
    # one uniform double located in the normalized cumulative sum.
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    outcome = int(outcomes[np.searchsorted(cdf, rng.random(), side="right")])
    prob, post = project(state, reg, outcome)
    if post is None:
        raise ValueError(
            f"cannot renormalize onto {reg}={outcome}: probability {prob!r} underflows")
    return outcome, post
