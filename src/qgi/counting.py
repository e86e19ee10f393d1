"""Quantum counting: Grover iterate, phase estimation, count decoding.

The amount of overlap between the two private sets shows up as the
rotation angle of the Grover iterate built around the joint preparation.
Phase estimation reads that angle into a counting register; decoding maps
the measured integer y to a count via t = K * sin^2(pi * y / 2^p).

Two exact engines compute the outcome distribution for any initial
state, honest or disturbed:

* ``circuit`` materializes the counting register next to the data
  registers, applies the controlled iterate powers by repeated
  application, and applies the inverse Fourier transform on the counting
  register.  It is the literal textbook circuit and is capped by the
  qubit budget.
* ``reduced`` uses the iterate's eigenspaces: it rotates the initial
  state's component in the plane spanned by the marked and unmarked parts
  of the preparation, and places the marked and unmarked mass outside
  that plane on the eigenphases 0 and 1/2.  It works on branches only, at
  any size.

``auto`` picks ``circuit`` when it comfortably fits and ``reduced``
otherwise.  Both engines agree to machine precision wherever both run.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .oracles import DATA_B, COUNT, PreparationSpec, prepare_joint
from .registers import QUBIT_BUDGET, check_budget
from .state import QuantumState

EIGHT_OVER_PI_SQ = 8.0 / math.pi ** 2
CIRCUIT_AUTO_LIMIT = 20
_BRANCH_FLOOR = 1e-14
_PEAK_TIE = 1e-12


class Verdict(str, enum.Enum):
    INTERSECT = "INTERSECT"
    DISJOINT = "DISJOINT"
    ABORT = "ABORT"

    def __str__(self) -> str:
        return self.value


def default_counting_bits(search_space: int) -> int:
    """Counting-register width giving sub-unit count error: ceil(log2 K) + 3."""
    if search_space < 1:
        raise ValueError(f"search space must be >= 1, got {search_space}")
    return max(0, math.ceil(math.log2(search_space))) + 3


@dataclass(frozen=True)
class CountingConfig:
    """Phase-estimation settings.

    ``bits`` defaults to ceil(log2 K) + 3 for the instance at hand.  In
    ``exact`` mode the estimate is the lowest outcome whose probability in
    the exactly computed distribution is within 1e-12 of the maximum;
    ``sample`` mode draws one outcome with the seeded generator instead.
    """

    bits: int | None = None
    mode: str = "exact"
    seed: int | None = None
    engine: str = "auto"

    def __post_init__(self):
        if self.bits is not None and self.bits < 1:
            raise ValueError(f"counting register needs >= 1 qubit, got {self.bits}")
        if self.mode not in ("exact", "sample"):
            raise ValueError(f"mode must be 'exact' or 'sample', got {self.mode!r}")
        if self.engine not in ("auto", "circuit", "reduced"):
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class CountEstimate:
    """Decoded phase-estimation outcome."""

    y: int
    bits: int
    search_space: int
    theta_hat: float
    t_hat: float
    t_rounded: int
    success_prob: float | None
    engine: str
    distribution: np.ndarray | None = None

    def to_dict(self, include_distribution: bool = False) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "distribution"}
        if include_distribution and self.distribution is not None:
            doc["distribution"] = [float(p) for p in self.distribution]
        return doc


def decode_count(y: int, search_space: int, bits: int) -> float:
    """Count encoded by outcome y: K * sin^2(pi * y / 2^bits)."""
    return search_space * math.sin(math.pi * y / (1 << bits)) ** 2


class GroverIterate:
    """Unitary G = (2|psi><psi| - I) * S, with S flipping marked branches.

    |psi> is the joint preparation and a branch is marked when its second
    data register is zero.  The reflection about |psi> equals conjugating
    the all-zero-state reflection by the preparation pipeline, for any
    unitary completion of that pipeline, so it is applied directly.
    """

    def __init__(self, spec: PreparationSpec):
        self.spec = spec
        self.prepared = prepare_joint(spec)

    @functools.cached_property
    def _signs(self) -> np.ndarray:
        """Dense sign vector of S; only the circuit engine needs it."""
        values = self.prepared.layout.index_values(DATA_B)
        return np.where(values == 0, -1.0, 1.0)

    @property
    def marked_mass(self) -> float:
        """Probability mass of the prepared state on marked branches."""
        probs = self.prepared.branch_probabilities()
        return float(probs[self.prepared.register_values(DATA_B) == 0].sum())

    @property
    def rotation_angle(self) -> float:
        """Angle theta with sin^2(theta / 2) equal to the marked mass."""
        return 2.0 * math.asin(math.sqrt(min(1.0, max(0.0, self.marked_mass))))

    def apply_amplitudes(self, amps: np.ndarray) -> np.ndarray:
        axis = self.prepared.amplitudes
        flipped = amps * self._signs
        return 2.0 * np.vdot(axis, flipped) * axis - flipped

    def _check_layout(self, state: QuantumState):
        if state.layout != self.prepared.layout:
            raise ValueError("state layout does not match the preparation")

    def apply(self, state: QuantumState) -> QuantumState:
        self._check_layout(state)
        return QuantumState(state.layout, self.apply_amplitudes(state.amplitudes))

    def apply_inverse(self, state: QuantumState) -> QuantumState:
        # G^-1 = S (2|psi><psi| - I) = S G S, because S is its own inverse.
        self._check_layout(state)
        signs = self._signs
        return QuantumState(state.layout,
                            signs * self.apply_amplitudes(signs * state.amplitudes))


def grover_iterate(spec: PreparationSpec) -> GroverIterate:
    return GroverIterate(spec)


def exact_count(state: QuantumState) -> int:
    """Marked-branch count read directly off an honest joint preparation.

    Rejects states whose nonzero branches are not all of equal magnitude,
    since those cannot come from the honest pipeline.
    """
    probs = state.branch_probabilities()
    nonzero = probs > _BRANCH_FLOOR
    branches = int(nonzero.sum())
    if branches == 0:
        raise ValueError("state has no nonzero branches")
    magnitudes = np.sqrt(probs[nonzero])
    if np.max(np.abs(magnitudes - 1.0 / math.sqrt(branches))) > 1e-9:
        raise ValueError("branch magnitudes are not uniform; "
                         "state is not an honest preparation")
    marked = state.register_values(DATA_B) == 0
    return int(np.count_nonzero(nonzero & marked))


def _distribution_reduced(iterate: GroverIterate, bits: int,
                          initial: QuantumState) -> np.ndarray:
    """Phase-estimation outcome distribution from the iterate's eigenspaces.

    With m and u the normalized marked and unmarked parts of the
    preparation, G rotates the (m, u) plane by theta, fixes every marked
    state orthogonal to m and negates every unmarked state orthogonal to
    u.  The initial state's (a, b) coordinates in the plane give rows
    R(z theta)(a, b), on whose index the inverse Fourier transform acts
    as on the counting register; the marked and unmarked mass outside the
    plane lands on outcomes 0 and 2^bits / 2.
    """
    size = 1 << bits
    prepared = iterate.prepared
    pos = np.minimum(np.searchsorted(initial.indices, prepared.indices),
                     len(initial.indices) - 1)
    overlap = np.where(initial.indices[pos] == prepared.indices,
                       initial.values[pos], 0) * prepared.values.conj()
    prep_marked = prepared.register_values(DATA_B) == 0
    prep_probs = prepared.branch_probabilities()
    init_marked = initial.register_values(DATA_B) == 0
    init_probs = initial.branch_probabilities()
    coords = []
    for part in (prep_marked, ~prep_marked):
        norm = math.sqrt(float(prep_probs[part].sum()))
        coords.append(complex(overlap[part].sum()) / norm if norm > 0 else 0j)
    a, b = coords
    angles = iterate.rotation_angle * np.arange(size)
    cos, sin = np.cos(angles), np.sin(angles)
    rows = np.stack([a * cos + b * sin, b * cos - a * sin], axis=1)
    transformed = np.fft.fft(rows, axis=0) / size
    probs = np.sum(np.abs(transformed) ** 2, axis=1)
    probs[0] += max(0.0, float(init_probs[init_marked].sum()) - abs(a) ** 2)
    probs[size // 2] += max(0.0, float(init_probs[~init_marked].sum()) - abs(b) ** 2)
    return probs


def _distribution_circuit(iterate: GroverIterate, bits: int,
                          initial: QuantumState) -> np.ndarray:
    """Phase-estimation outcome distribution from the materialized circuit.

    The joint state after the controlled iterate powers is sum_z |z> (x)
    G^z |initial> / sqrt(2^bits); rows are filled by repeated application
    of the iterate and the inverse Fourier transform acts on the counting
    index.
    """
    size = 1 << bits
    dim = initial.layout.dim
    rows = np.empty((size, dim), dtype=np.complex128)
    current = initial.amplitudes.copy()
    for z in range(size):
        rows[z] = current
        if z + 1 < size:
            current = iterate.apply_amplitudes(current)
    transformed = np.fft.fft(rows, axis=0) / size
    return np.sum(np.abs(transformed) ** 2, axis=1)


def counting_layout(spec: PreparationSpec, bits: int):
    """Layout of the circuit engine: data registers plus the counting register."""
    return spec.layout().extend(COUNT, bits)


def phase_estimate(spec: PreparationSpec, cfg: CountingConfig | None = None,
                   initial_state: QuantumState | None = None,
                   rng: np.random.Generator | None = None) -> CountEstimate:
    """Estimate the marked count of the joint preparation.

    ``initial_state`` overrides the honest preparation (used to study runs
    where the in-flight state was disturbed).  Both engines take it, and
    the engine choice does not depend on it; it disables the
    success-probability report, since the true count is then undefined.
    """
    cfg = cfg or CountingConfig()
    search_space = spec.size_k
    bits = cfg.bits if cfg.bits is not None else default_counting_bits(search_space)
    check_budget(bits, "counting register")
    size = 1 << bits
    iterate = GroverIterate(spec)

    if initial_state is not None and initial_state.layout != spec.layout():
        raise ValueError("initial state layout does not match the preparation")
    initial = initial_state or iterate.prepared

    data_qubits = spec.layout().total_qubits
    engine = cfg.engine
    if engine == "auto":
        engine = "circuit" if data_qubits + bits <= CIRCUIT_AUTO_LIMIT else "reduced"
    if engine == "circuit":
        if data_qubits + bits > QUBIT_BUDGET:
            raise ValueError(
                f"circuit engine needs {data_qubits + bits} qubits "
                f"({data_qubits} data + {bits} counting), cap is {QUBIT_BUDGET}")
        probs = _distribution_circuit(iterate, bits, initial)
    else:
        probs = _distribution_reduced(iterate, bits, initial)

    if cfg.mode == "sample":
        gen = rng if rng is not None else np.random.default_rng(cfg.seed)
        y = int(gen.choice(size, p=probs / probs.sum()))
        success = None
    else:
        # Rounding noise must not choose between equal peaks, such as the
        # mirrors y and 2^bits - y.
        y = int(np.flatnonzero(probs >= probs.max() - _PEAK_TIE)[0])
        if initial_state is None:
            true_t = exact_count(iterate.prepared)
            decoded = np.round(np.clip(
                search_space * np.sin(np.pi * np.arange(size) / size) ** 2,
                0, search_space)).astype(int)
            success = float(probs[decoded == true_t].sum())
        else:
            success = None

    t_hat = decode_count(y, search_space, bits)
    t_rounded = int(min(search_space, max(0, round(t_hat))))
    return CountEstimate(
        y=y, bits=bits, search_space=search_space,
        theta_hat=2.0 * math.pi * y / size,
        t_hat=t_hat, t_rounded=t_rounded,
        success_prob=success, engine=engine, distribution=probs)


def decide_intersection(estimate: CountEstimate) -> Verdict:
    """INTERSECT when at least one matching pair was counted."""
    return Verdict.INTERSECT if estimate.t_rounded >= 1 else Verdict.DISJOINT
