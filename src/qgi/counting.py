"""Quantum counting: Grover iterate, phase estimation, count decoding.

The amount of overlap between the two private sets shows up as the
rotation angle of the Grover iterate built around the joint preparation.
Phase estimation reads that angle into a counting register; decoding maps
the measured integer y to a count via t = K * sin^2(pi * y / 2^p).

Two exact engines compute the outcome distribution for any initial
state, honest or disturbed:

* ``circuit`` is the textbook circuit: the controlled iterate powers,
  then the inverse Fourier transform on the counting register.  It runs
  on the union of the initial state's and the preparation's branches,
  which G never leaves (see ``GroverIterate``), and is capped by the
  qubit budget.  The rows G^z |x> also never leave a span of at most
  four dimensions: S is diagonal with S^2 = I, so G = 2|psi><S psi| - S
  maps span{x, Sx, psi, S psi} into itself.  Three steps on the branches
  give rows 1-3, and an orthonormal basis Q of rows 0-3 carries every
  row as r <= 4 coordinates.  The powers G^(2^j) written on Q come by
  repeated squaring and fill the rows by doubling, and the transform
  runs on the coordinates alone, as Q's columns are orthonormal.  The
  engine holds 2^bits x r x 16 bytes.
* ``reduced`` uses the iterate's eigenspaces: it rotates the initial
  state's component in the plane spanned by the marked and unmarked parts
  of the preparation, and places the marked and unmarked mass outside
  that plane on the eigenphases 0 and 1/2.  It works on branches only, at
  any size.

``auto`` picks ``circuit`` when it comfortably fits and ``reduced``
otherwise.  The engines agree within 1e-12 up to 9 counting bits.  The
circuit's error grows with 2^bits: its iterate reflects about psi, whose
computed norm can be 1 - 4e-16, and its 2^bits powers compound that.
At 12 bits, against a 40-digit reference on the worked, a disjoint and
a 3x3-overlap spec, ``circuit`` is off by up to 3.6e-12 and ``reduced``
by under 1e-14; over 150 random specs the two differ by up to 6.4e-12.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .oracles import DATA_B, PreparationSpec, prepare_joint
from .registers import QUBIT_BUDGET, check_budget
from .state import QuantumState, align, reflect

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
    ``sample`` mode draws one outcome with the run's generator instead.
    """

    bits: int | None = None
    mode: str = "exact"
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
    unitary completion of that pipeline, so it is applied directly.  As S
    is diagonal and the reflection adds a multiple of |psi>, G maps the
    span of any branches that include |psi>'s into itself.

    ``prepared`` is |psi>; a protocol run passes the preparation Alice
    already holds, and ``grover_iterate`` builds one from a spec.
    """

    def __init__(self, prepared: QuantumState):
        self.prepared = prepared

    def on_support(self, state: QuantumState) -> tuple[np.ndarray, ...]:
        """The union of the state's and |psi>'s branches, and on it their
        values and the signs of S."""
        if state is self.prepared:  # its own branches; no union to sort
            support, values, axis = state.indices, state.values, state.values
        elif state.layout != self.prepared.layout:
            raise ValueError("state layout does not match the preparation")
        else:
            support, (values, axis) = align(state, self.prepared)
        signs = np.where(state.layout.extract(support, DATA_B) == 0, -1.0, 1.0)
        return support, values, axis, signs

    def apply(self, state: QuantumState) -> QuantumState:
        support, values, axis, signs = self.on_support(state)
        out = reflect(values * signs, axis)
        keep = out != 0  # a state holds only its nonzero branches
        return QuantumState.from_branches(state.layout, support[keep], out[keep])


def grover_iterate(spec: PreparationSpec) -> GroverIterate:
    return GroverIterate(prepare_joint(spec))


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
    _, values, axis, signs = iterate.on_support(initial)
    overlap = values * axis.conj()
    axis_probs, init_probs = np.abs(axis) ** 2, np.abs(values) ** 2
    coords, masses, norms = [], [], []
    for part in (signs < 0, signs > 0):
        norm = math.sqrt(float(axis_probs[part].sum()))
        coords.append(complex(overlap[part].sum()) / norm if norm > 0 else 0j)
        masses.append(float(init_probs[part].sum()))
        norms.append(norm)
    a, b = coords
    # sin(theta / 2) is the norm of the preparation's marked part.
    angles = 2.0 * math.asin(min(1.0, norms[0])) * np.arange(size)
    cos, sin = np.cos(angles), np.sin(angles)
    rows = np.stack([a * cos + b * sin, b * cos - a * sin], axis=1)
    transformed = np.fft.fft(rows, axis=0) / size
    probs = np.sum(np.abs(transformed) ** 2, axis=1)
    probs[0] += max(0.0, masses[0] - abs(a) ** 2)
    probs[size // 2] += max(0.0, masses[1] - abs(b) ** 2)
    return probs


def _distribution_circuit(iterate: GroverIterate, bits: int,
                          initial: QuantumState) -> np.ndarray:
    """Phase-estimation outcome distribution from the circuit, on branches.

    The joint state after the controlled iterate powers is sum_z |z> (x)
    G^z |initial> / sqrt(2^bits), and the inverse Fourier transform acts
    on the counting index.  Every row G^z |initial> is zero off the union
    of the initial state's and the preparation's branches.

    Every row lies in the span of rows 0-3.  With x the initial state,
    G x = 2 psi <S psi|x> - S x and G S x = 2 psi <psi|x> - x, and the
    same holds with psi for x, as S^2 = I: G maps span{x, Sx, psi, S psi}
    into itself, so the rows span at most four dimensions, and once a row
    lies in the span of the rows before it every later row does too.
    Rows 0-3 are steps of the iterate on the support.  Householder QR
    gives an orthonormal basis Q of r <= 4 columns holding their span,
    also when they are linearly dependent, as on an honest run's plane,
    and their coordinates c[0:4] in Q.  H = Q^H G Q takes one reflection
    of the whole matrix S Q.  The later rows follow by doubling,
    c[2^j : 2^(j+1)] = c[0 : 2^j] (H^(2^j))^T, with H^(2^j) by repeated
    squaring: bits - 2 products, not 2^bits - 4 steps.  The rows are
    c Q^T, so with F the Fourier transform over z, divided by 2^bits,
    their transform is (F c) Q^T, and as Q has orthonormal columns the
    probability of outcome y,
    sum_x |(F c) Q^T|^2[y, x], is ||(F c)[y]||^2.  The engine holds
    2^bits x r coordinates, never a row over the union.
    """
    size = 1 << bits
    _, current, axis, signs = iterate.on_support(initial)
    head = min(size, 4)
    head_rows = np.empty((len(current), head), dtype=np.complex128)
    head_rows[:, 0] = current
    for z in range(1, head):
        head_rows[:, z] = current = reflect(current * signs, axis)
    basis, head_coords = np.linalg.qr(head_rows)
    coords = np.zeros((size, basis.shape[1]), dtype=np.complex128)
    coords[:head] = head_coords.T
    if size > head:
        # Each overlap <psi|S q> is summed by vdot on a contiguous column,
        # as ``reflect`` sums it, so H keeps its bits: a matrix product
        # sums in another order and moves estimates in the last digit.
        flipped = np.multiply(basis, signs[:, None], order="F")
        overlaps = [np.vdot(axis, column) for column in flipped.T]
        step = basis.conj().T @ (2.0 * np.outer(axis, overlaps) - flipped)
        power = step @ step
        for j in range(2, bits):
            power = power @ power  # H^(2^j)
            coords[1 << j:2 << j] = coords[:1 << j] @ power.T
    # Scaling by the power of two 1 / size^2 after squaring is exact.
    return (np.abs(np.fft.fft(coords, axis=0)) ** 2).sum(axis=1) / size ** 2


def plan_counting(spec: PreparationSpec,
                  cfg: CountingConfig) -> tuple[int, str]:
    """Counting-register width and engine for a spec, refused above the budget.

    Depends only on the spec's sizes, so a run can call it before any
    state is prepared.
    """
    bits = cfg.bits if cfg.bits is not None else default_counting_bits(spec.size_k)
    check_budget(bits, "counting register")
    data_qubits = spec.layout().total_qubits
    engine = cfg.engine
    if engine == "auto":
        engine = "circuit" if data_qubits + bits <= CIRCUIT_AUTO_LIMIT else "reduced"
    if engine == "circuit" and data_qubits + bits > QUBIT_BUDGET:
        raise ValueError(
            f"circuit engine needs {data_qubits + bits} qubits "
            f"({data_qubits} data + {bits} counting), cap is {QUBIT_BUDGET}")
    return bits, engine


def phase_estimate(spec: PreparationSpec, cfg: CountingConfig | None = None,
                   initial_state: QuantumState | None = None,
                   rng: np.random.Generator | None = None,
                   prepared: QuantumState | None = None) -> CountEstimate:
    """Estimate the marked count of the joint preparation.

    The iterate reflects about ``prepared``, the joint preparation the
    caller already holds after checking its layout against the spec; when
    it is not given, the preparation pipeline runs here.
    ``initial_state`` overrides the preparation as the state counted
    (used to study runs where the in-flight state was disturbed).  Both
    engines take it, and the engine choice does not depend on it; it
    disables the success-probability report, since the true count is
    then undefined.  Exact mode reads the true count off the preparation
    with ``exact_count``, which refuses a state whose branch magnitudes
    are not uniform.  Sample mode draws the outcome from ``rng``, the
    run's generator, and needs one.
    """
    cfg = cfg or CountingConfig()
    if cfg.mode == "sample" and rng is None:
        raise ValueError("sample mode needs a generator to draw the outcome")
    search_space = spec.size_k
    bits, engine = plan_counting(spec, cfg)
    size = 1 << bits
    if prepared is None:
        prepared = prepare_joint(spec)
    elif prepared.layout != spec.layout():
        raise ValueError(f"prepared state layout {prepared.layout!r} does not "
                         f"match the spec's {spec.layout()!r}")
    iterate = GroverIterate(prepared)
    initial = initial_state or prepared
    if engine == "circuit":
        probs = _distribution_circuit(iterate, bits, initial)
    else:
        probs = _distribution_reduced(iterate, bits, initial)

    if cfg.mode == "sample":
        y = int(rng.choice(size, p=probs / probs.sum()))
        success = None
    else:
        # Rounding noise must not choose between equal peaks, such as the
        # mirrors y and 2^bits - y.
        y = int(np.flatnonzero(probs >= probs.max() - _PEAK_TIE)[0])
        if initial_state is None:
            true_t = exact_count(prepared)
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
