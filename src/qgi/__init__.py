"""Exact simulator for a privacy-preserving quantum two-party
geometric-intersection protocol."""

from .registers import QUBIT_BUDGET, RegisterLayout
from .state import QuantumState, measure_register, tensor
from .oracles import (ADDR_A, ADDR_B, DATA_A, DATA_B, DataTable,
                      PreparationSpec, address_bits, cheat_check, oracle_load,
                      oracle_xor, prepare_encoded, prepare_joint)
from .geometry import (GridConfig, GridSet, Rect, Scene, SceneFormatError,
                       classical_intersect, grid_serial, load_scene, rasterize,
                       scene_from_dict, serial_cell)
from .counting import (CountEstimate, CountingConfig, GroverIterate, Verdict,
                       decide_intersection, decode_count,
                       default_counting_bits, exact_count, grover_iterate,
                       phase_estimate)
from .protocol import (HONEST, AdversaryStrategy, Attack, CostSummary,
                       LeakageReport, ProtocolTranscript, StepRecord,
                       build_preparation, comm_cost, detection_probability,
                       leakage_report, run_protocol)

__version__ = "0.1.0"
