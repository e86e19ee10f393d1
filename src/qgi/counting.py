"""Quantum counting: Grover iterate, phase estimation, count decoding.

The amount of overlap between the two private sets shows up as the
rotation angle of the Grover iterate built around the joint preparation.
Phase estimation reads that angle into a counting register; decoding maps
the measured integer y to a count via t = K * sin^2(pi * y / 2^p).

One closed form gives the outcome distribution for any initial state,
honest or disturbed.  It starts from the plane summary (see ``_Plane``).
sin^2(theta / 2) = t / K fixes the iterate's rotation angle, with t the
tables' common entries.  A counted state that equals the preparation
branch for branch sits on that plane as the preparation does; any other
state's overlap with the preparation is read from the tables, so its
coordinates on the basis in which G is a rotation of one plane, the
identity and minus the identity cost its own branches.
On that basis the circuit's controlled iterate powers and inverse
Fourier transform give each outcome's probability in closed form: a sum
of Fejer kernels centred on the eigenphases, plus the off-plane masses
at y = 0 and y = 2^bits / 2 (``_Plane.probabilities``).  It is evaluated
only at the outcomes a caller reads: in exact mode near the peaks and on
the two runs of y that decode to the true count, 2^17 at a time (at the
peaks alone if exact deltas), and at every outcome only when the whole
distribution is read or sampled.

The engine name records the run's size class and nothing else:
``circuit`` when data plus counting qubits are at most
``CIRCUIT_AUTO_LIMIT``, within the qubit budget, and ``reduced``
otherwise.  Both names take the one evaluation path above, so they give
bit-identical distributions and estimates.  The formula is within 1e-12
of the literal circuit up to 9 counting bits.  At 12 bits, against
a 40-digit reference, it is off by under 1e-14 on the worked, a disjoint
and a 3x3-overlap spec, and by up to 6.3e-14 over 150 random specs, on
one with t/K = 1/3.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .oracles import ADDR_A, ADDR_B, DATA_A, DATA_B, PreparationSpec, prepare_joint
from .registers import QUBIT_BUDGET, check_budget
from .state import QuantumState, align, reflect

CIRCUIT_AUTO_LIMIT = 20
_BRANCH_FLOOR = 1e-14
_PEAK_TIE = 1e-12
_WINDOW_CHUNK = 1 << 17  # success-window outcomes evaluated at a time


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


# Exact mode's widest register: the default for the largest K a spec admits.
_EXACT_BITS_CAP = default_counting_bits(1 << QUBIT_BUDGET)


@dataclass(frozen=True)
class CountingConfig:
    """Phase-estimation settings.

    ``bits`` defaults to ceil(log2 K) + 3 for the instance at hand.  In
    ``exact`` mode the estimate is the lowest outcome whose probability in
    the exactly computed distribution is within 1e-12 of the maximum;
    ``sample`` mode draws one outcome with the run's generator instead.
    The engine follows from the sizes (see ``plan_counting``).
    """

    bits: int | None = None
    mode: str = "exact"

    def __post_init__(self):
        if self.bits is not None and (type(self.bits) is not int or self.bits < 1):
            raise ValueError(f"counting register width must be an int >= 1, "
                             f"got {self.bits!r}")
        if self.mode not in ("exact", "sample"):
            raise ValueError(f"mode must be 'exact' or 'sample', got {self.mode!r}")


@dataclass(frozen=True)
class CountEstimate:
    """Decoded phase-estimation outcome.

    ``distribution``, every outcome's probability, is built by
    ``outcomes`` when first read, refused above the qubit budget.
    """

    y: int
    bits: int
    search_space: int
    theta_hat: float
    t_hat: float
    t_rounded: int
    success_prob: float | None
    engine: str
    outcomes: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def distribution(self) -> np.ndarray:
        check_budget(self.bits, "outcome distribution")
        return self.outcomes()

    def to_dict(self, include_distribution: bool = False) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "outcomes"}
        if include_distribution:
            doc["distribution"] = [float(p) for p in self.distribution]
        return doc


def decode_count(y: int, search_space: int, bits: int) -> float:
    """Count encoded by outcome y: K * sin^2(pi * y / 2^bits)."""
    return search_space * math.sin(math.pi * y / (1 << bits)) ** 2


class GroverIterate:
    """Unitary G = (2|psi><psi| - I) * S, with S flipping marked branches.

    |psi> is the joint preparation and a branch is marked when Bob's
    data register is zero.  The reflection about |psi> equals conjugating
    the all-zero-state reflection by the preparation pipeline, for any
    unitary completion of that pipeline, so it is applied directly.  As S
    is diagonal and the reflection adds a multiple of |psi>, G maps the
    span of any branches that include |psi>'s into itself.

    ``prepared`` is |psi>, which ``grover_iterate`` builds from a spec.
    ``apply`` is the literal step, on the union of the state's and |psi>'s
    branches; no estimate takes one (see ``_Plane``).
    """

    def __init__(self, prepared: QuantumState):
        self.prepared = prepared

    def apply(self, state: QuantumState) -> QuantumState:
        if state.layout != self.prepared.layout:
            raise ValueError("state layout does not match the preparation")
        support, (values, axis) = align(state, self.prepared)
        marked = state.layout.extract(support, DATA_B) == 0
        out = reflect(values * np.where(marked, -1.0, 1.0), axis)
        keep = out != 0  # a state holds only its nonzero branches
        return QuantumState.from_branches(state.layout, support[keep], out[keep])


def grover_iterate(spec: PreparationSpec) -> GroverIterate:
    return GroverIterate(prepare_joint(spec))


def exact_count(state: QuantumState) -> int:
    """Marked-branch count of an honest joint preparation, in one pass.

    Rejects states whose nonzero branches are not all of equal magnitude,
    since those cannot come from the honest pipeline.
    """
    magnitudes = np.abs(state.values)
    # The floor leaves out zero branches a preparation may list.
    nonzero = magnitudes ** 2 > _BRANCH_FLOOR
    kept = magnitudes[nonzero]
    if not kept.size:
        raise ValueError("state has no nonzero branches")
    if np.abs(kept - 1 / math.sqrt(kept.size)).max() > 1e-9:
        raise ValueError("branch magnitudes are not uniform; "
                         "state is not an honest preparation")
    marked = state.layout.extract(state.indices, DATA_B) == 0
    return int(np.count_nonzero(nonzero & marked))


def _is_preparation(spec: PreparationSpec, state: QuantumState) -> bool:
    """Whether ``state`` is ``prepare_joint(spec)`` branch for branch.

    Its K indices are rebuilt from the two tables, ascending in (i, j):
    ``i << offset | table_a[i]`` XOR ``j << offset | table_b[j]`` puts the
    addresses in their registers, 0 in Alice's data register and the pair's
    XOR in Bob's (see ``qgi.oracles``).  Every amplitude must be exactly
    the one ``tensor`` forms, 1/sqrt(M) 1/sqrt(N).
    """
    size_a, size_b = spec.table_a.size, spec.table_b.size
    layout = spec.layout()
    if state.layout != layout or len(state.indices) != size_a * size_b:
        return False
    amplitude = np.complex128(1 / math.sqrt(size_a)) * (1 / math.sqrt(size_b))
    if np.count_nonzero(state.values != amplitude):
        return False
    step_a, step_b = 1 << layout.offset(ADDR_A), 1 << layout.offset(ADDR_B)
    rows_a = np.arange(0, size_a * step_a, step_a) | spec.table_a.lookup[:size_a]
    rows_b = np.arange(0, size_b * step_b, step_b) | spec.table_b.lookup[:size_b]
    return not np.count_nonzero(state.indices != (rows_a[:, None] ^ rows_b).ravel())


@dataclass(frozen=True)
class _Plane:
    """The counted state on the iterate's eigenspaces.

    With m and u the normalized marked and unmarked parts of the
    preparation, G rotates the (m, u) plane by theta (G m = cos theta m
    - sin theta u, G u = sin theta m + cos theta u), fixes every marked
    state orthogonal to m and negates every unmarked state orthogonal to
    u.  The initial state is a m + b u plus a marked part off the plane,
    of mass ``off_marked``, and an unmarked one, of mass ``off_unmarked``.
    So in the orthonormal basis of m, u and those two parts, G^z |initial>
    is R(z theta)(a, b), a constant and an alternating row: the controlled
    powers need no step of the iterate.

    The inverse Fourier transform over z, divided by n = 2^bits, turns the
    constant and alternating rows into deltas at y = 0 and y = n/2, and
    writing R(z theta)(a, b) = e^(i z theta) c+ v+ + e^(-i z theta) c- v-,
    with v+- = (1, +-i) / sqrt(2) orthonormal and c+- = (a -+ i b) / sqrt(2),
    turns each phase e^(+-i z theta) into the Fejer kernel centred on
    +-n phi, phi = theta / 2 pi (Brassard, Hoyer, Mosca and Tapp,
    arXiv:quant-ph/0005055, section 4), so

        P(y) = w+ F_n(y - n phi) + w- F_n(y + n phi)
               + off_marked [y = 0] + off_unmarked [y = n / 2],

    with w+- = |c+-|^2 and F_n(d) = sin^2(pi d) / (n sin(pi d / n))^2.

    ``of_count`` gives the preparation's own plane from its t = ``count``
    marked branches of K: sin(theta / 2) = |m| = sqrt(t / K), with no sum.
    ``on``, on that plane, reads the preparation from the tables:
    1/sqrt(M) 1/sqrt(N) where i < M, j < N, data_a 0, data_b a[i] ^ b[j].
    """

    theta: float
    a: complex
    b: complex
    off_marked: float
    off_unmarked: float
    count: int

    @classmethod
    def of_count(cls, count: int, size: int) -> "_Plane":
        norms = math.sqrt(count / size), math.sqrt((size - count) / size)
        return cls(2.0 * math.asin(norms[0]), *norms, 0.0, 0.0, count)

    def on(self, spec: PreparationSpec, initial: QuantumState) -> "_Plane":
        if initial.layout != spec.layout():
            raise ValueError("state layout does not match the preparation")
        i, j, data_a, data_b = (initial.layout.extract(initial.indices, name)
                                for name in (ADDR_A, ADDR_B, DATA_A, DATA_B))
        # The preparation's amplitude on each initial branch, or 0 off its
        # branches, so the sums run over the initial state's branches alone.
        size_a, size_b = spec.table_a.size, spec.table_b.size
        axis = np.where((i < size_a) & (j < size_b) & (data_a == 0)
                        & (data_b == spec.table_a.lookup[i] ^ spec.table_b.lookup[j]),
                        np.complex128(1 / math.sqrt(size_a)) * (1 / math.sqrt(size_b)), 0)
        marked = data_b == 0

        def parts(array: np.ndarray) -> tuple[float, float]:
            # Marked and unmarked sums: the whole less the marked part, so the
            # mostly unmarked branches are summed pairwise once, never copied.
            whole, part = array.sum(), array[marked].sum()
            return part, whole - part
        a, b = (complex(inner) / norm if norm > 0 else 0j
                for inner, norm in zip(parts(initial.values * axis.conj()), (self.a, self.b)))
        off = [max(0.0, float(mass) - abs(c) ** 2)
               for mass, c in zip(parts(np.abs(initial.values) ** 2), (a, b))]
        return _Plane(self.theta, a, b, *off, self.count)

    def probabilities(self, bits: int, ys: np.ndarray) -> np.ndarray:
        """P(y) at the int64 outcomes ``ys``, from the kernels.

        A distance to a peak is an exact integer offset, wrapped modulo n,
        minus a fraction in [-1/2, 1/2] (a float distance near y ~ 2^23
        would lose nine digits); the -phi peak is the +phi one's exact
        mirror.  sin^2(pi (k - frac)) is sin^2(pi frac) for every integer
        k, and an integer n phi makes both kernels exact deltas.
        """
        size, half = 1 << bits, (1 << bits) // 2
        base, frac = self._centre(bits)
        # Row 0 holds the +phi peak and row 1 its mirror.
        offsets = ((ys + np.array([[half - base], [half + base]])) & (size - 1)) - half
        if frac == 0.0:
            kernels = (offsets == 0).astype(np.float64)
        else:
            kernels = offsets - np.array([[frac], [-frac]])
            # In place from here: a window comes 2^17 outcomes at a time, but a
            # whole-distribution read (--verbose, sample mode) holds 2^24.
            del offsets
            kernels *= math.pi / size
            np.sin(kernels, out=kernels)
            kernels *= size
            kernels *= kernels
            np.divide(math.sin(math.pi * frac) ** 2, kernels, out=kernels)
        probs = kernels[0] * (abs(self.a - 1j * self.b) ** 2 / 2)
        probs += kernels[1] * (abs(self.a + 1j * self.b) ** 2 / 2)
        probs[ys == 0] += self.off_marked
        probs[ys == half] += self.off_unmarked
        return probs

    def candidates(self, bits: int) -> np.ndarray:
        """Ascending outcomes that hold the maximum of P: 0, n/2 and the y
        within two of each peak.  Any other y is 2.5 or more from both
        peaks, where F_n <= 1 / (2 * 2.5)^2 = 0.04, while the maximum is at
        least 4/pi^2 * 1/4 > 0.1, as one of the four masses is >= 1/4.
        """
        size = 1 << bits
        base, _ = self._centre(bits)
        ys = {0, size // 2}
        ys.update((sign * base + step) % size for sign in (1, -1) for step in range(-2, 3))
        return np.array(sorted(ys), dtype=np.int64)

    def _centre(self, bits: int) -> tuple[int, float]:
        """The +phi peak n phi as the nearest integer and a fraction."""
        n_phi = (1 << bits) * self.theta / (2.0 * math.pi)
        base = round(n_phi)
        return base, n_phi - base


def _rounded_count(y: int, search_space: int, bits: int) -> int:
    """The count outcome y stands for: its decode rounded into [0, K]."""
    return int(min(search_space, max(0, round(decode_count(y, search_space, bits)))))


def _success_runs(count: int, search_space: int, bits: int) -> tuple[range, ...]:
    """The outcomes y that decode to ``count``, as ascending runs.

    ``_rounded_count`` rises on [0, n/2] and falls on (n/2, n), so on each
    half the y it maps to ``count`` are one run, which bisection finds.
    Only ``_exact_read`` asks for them, on its first read of a plane; at
    27 bits a bisection takes about 0.1 ms.
    """
    def run(side: range, sign: int) -> range:
        key = lambda y: sign * _rounded_count(y, search_space, bits)
        return side[bisect.bisect_left(side, sign * count, key=key):
                    bisect.bisect_right(side, sign * count, key=key)]
    size = 1 << bits
    runs = (run(range(size // 2 + 1), 1), run(range(size // 2 + 1, size), -1))
    return tuple(r for r in runs if r)


@functools.lru_cache(maxsize=128)
def _exact_read(plane: _Plane, search_space: int, bits: int,
                reports_success: bool) -> tuple[int, float | None]:
    """Exact mode's outcome y and success probability.

    A pure function of the plane and the sizes, memoized on them: an honest
    plane is fixed by (t, K), so a repeated (t, K, bits) costs a caller only
    its comparison with the preparation.  P is evaluated only at the
    outcomes read, never tabulated, so the memo holds numbers only.
    """
    at = functools.partial(plane.probabilities, bits)
    runs = _success_runs(plane.count, search_space, bits) if reports_success else []
    candidates = plane.candidates(bits)
    if plane._centre(bits)[1] == 0.0:  # exact deltas: P is 0 off the candidates
        runs = [range(y, y + 1) for y in candidates.tolist() if any(y in run for run in runs)]
    if len(candidates) + sum(map(len, runs)) <= _WINDOW_CHUNK:
        # P at the outcomes that can hold the maximum and on the runs at
        # once, and one pairwise sum in ascending y, as over a mask of
        # all outcomes.
        probs = at(np.concatenate(
            [candidates, *(np.arange(run.start, run.stop) for run in runs)]))
        peaks, window_sum = probs[:len(candidates)], probs[len(candidates):].sum()
    else:
        # A wide window in fixed chunks, their sums combined pairwise, as
        # ``state._norm_sq`` does: memory stays bounded at any width.
        peaks = at(candidates)
        window_sum = np.add.reduce([
            at(np.arange(start, min(start + _WINDOW_CHUNK, run.stop))).sum()
            for run in runs for start in range(run.start, run.stop, _WINDOW_CHUNK)])
    # Rounding noise must not choose between equal peaks, such as the
    # mirrors y and 2^bits - y.
    y = int(candidates[np.flatnonzero(peaks >= peaks.max() - _PEAK_TIE)[0]])
    return y, float(window_sum) if reports_success else None


def plan_counting(spec: PreparationSpec, cfg: CountingConfig,
                  distribution: bool = False) -> tuple[int, str]:
    """Counting-register width and engine for a spec, refused above the budget.

    Arithmetic on the spec's sizes alone, so a run can call it before any
    state is prepared.  The engine is ``circuit`` when data plus counting
    qubits are at most ``CIRCUIT_AUTO_LIMIT``, which is within the budget,
    and ``reduced`` otherwise.  The budget caps what is built: all 2^bits
    outcomes in sample mode or for a caller that reads them
    (``distribution``).  Exact mode builds only the peaks and success
    windows summed ``_WINDOW_CHUNK`` outcomes at a time, so it refuses by
    width alone, above the default width for the largest K.
    """
    bits = cfg.bits if cfg.bits is not None else default_counting_bits(spec.size_k)
    if cfg.mode == "sample" or distribution:
        check_budget(bits, "outcome distribution")
    elif bits > _EXACT_BITS_CAP:
        raise ValueError(f"counting register of {bits} qubits exceeds the cap "
                         f"of {_EXACT_BITS_CAP}")
    small = spec.layout().total_qubits + bits <= CIRCUIT_AUTO_LIMIT
    return bits, "circuit" if small else "reduced"


def phase_estimate(spec: PreparationSpec, cfg: CountingConfig | None = None,
                   initial_state: QuantumState | None = None,
                   rng: np.random.Generator | None = None) -> CountEstimate:
    """Estimate the marked count of the joint preparation.

    The iterate's plane comes from the tables: t = |A ∩ B| of K = M * N
    pairs, so with no state nothing is built.  ``initial_state``, the state
    counted (a run's is the one Alice holds after her check), counts as the
    preparation only if it equals it branch for branch (``_is_preparation``).
    Any other state is disturbed: its overlap with the preparation is read
    from the tables, and it reports no ``success_prob``, as the true count
    is then undefined.  The engine name does not depend on the state.
    Sample mode draws the outcome from ``rng``, the run's generator, and
    needs one; its ``distribution`` is the table it drew from.  An exact
    estimate holds no outcome table: ``distribution`` evaluates every
    outcome when read.
    """
    cfg = cfg or CountingConfig()
    if cfg.mode == "sample" and rng is None:
        raise ValueError("sample mode needs a generator to draw the outcome")
    search_space = spec.size_k
    bits, engine = plan_counting(spec, cfg)
    size = 1 << bits
    plane = _Plane.of_count(
        len(set(spec.table_a.entries) & set(spec.table_b.entries)), search_space)
    honest = initial_state is None or _is_preparation(spec, initial_state)
    plane = plane if honest else plane.on(spec, initial_state)
    outcomes = lambda: plane.probabilities(bits, np.arange(size))
    if cfg.mode == "sample":
        probs = outcomes()
        y, success = int(rng.choice(size, p=probs / probs.sum())), None
        outcomes = lambda: probs
    else:
        y, success = _exact_read(plane, search_space, bits, honest)

    return CountEstimate(
        y=y, bits=bits, search_space=search_space,
        theta_hat=2.0 * math.pi * y / size,
        t_hat=decode_count(y, search_space, bits),
        t_rounded=_rounded_count(y, search_space, bits),
        success_prob=success, engine=engine, outcomes=outcomes)


def decide_intersection(estimate: CountEstimate) -> Verdict:
    """INTERSECT when at least one matching pair was counted."""
    return Verdict.INTERSECT if estimate.t_rounded >= 1 else Verdict.DISJOINT
