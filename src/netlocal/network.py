"""Linear network scenarios: n independent two-qubit sources in a chain.

A scenario has n sources S_1..S_n and n+1 parties.  Party 1 holds the left
qubit of S_1, party i (2 <= i <= n) holds the right qubit of S_{i-1} together
with the left qubit of S_i, and party n+1 holds the right qubit of S_n.
Global qubit order is source-major: (S_1 left, S_1 right, S_2 left, ...).

Two measurement layouts are supported:

* kind "p22": every party has two inputs and two outputs; intermediate
  parties measure a dichotomic two-qubit observable per input.
* kind "p14": the end parties have two inputs and two outputs; each
  intermediate party performs one fixed four-outcome projective measurement
  whose outcomes are two-bit strings encoded as the integer 2*b0 + b1.

alphabets states these layouts as each party's input and output counts.
Outcome bit b corresponds to eigenvalue (-1)**b everywhere.

A scenario holds each party's settings as a checked Party, shared by
reference, and each source as a checked SourceState or a Werner visibility,
so standard_scenario builds only references and floats at any n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import qlin
from .errors import CHAIN_LENGTH_GUARD, KindError, RangeError, ScenarioError, check_size

KIND_P22 = "p22"
KIND_P14 = "p14"
KINDS = (KIND_P22, KIND_P14)

SCENARIO_SCHEMA_VERSION = 1
_COUNT_WORDS = {2: "two", 4: "four"}  # settings counts, as the messages spell them

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
ID4 = np.eye(4, dtype=complex)


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise KindError(f"unknown scenario kind {kind!r}, expected one of {KINDS}")
    return kind


def check_chain(n: int, kind: str) -> None:
    """Refuse an unknown kind (KindError), then a chain of fewer than two
    sources (ScenarioError): the checks every scenario entry point makes
    first, before anything that grows with n."""
    check_kind(kind)
    if n < 2:
        raise ScenarioError(f"chain needs at least two sources, got n={n}")


def alphabets(kind: str, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-party (input_sizes, output_sizes) for a chain with n sources."""
    check_kind(kind)
    if n < 2:
        raise RangeError(f"chain needs at least two sources, got n={n}")
    if kind == KIND_P22:
        return (2,) * (n + 1), (2,) * (n + 1)
    return (2,) + (1,) * (n - 1) + (2,), (2,) + (4,) * (n - 1) + (2,)


def singlet() -> np.ndarray:
    """Density operator of the two-qubit singlet (|01> - |10>)/sqrt(2)."""
    ket = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(ket, ket.conj())


def werner(alpha: float) -> np.ndarray:
    """Singlet mixed with white noise: alpha*singlet + (1-alpha)*I/4."""
    if not 0.0 <= alpha <= 1.0:
        raise RangeError(f"visibility must lie in [0, 1], got {alpha}")
    return alpha * _werner_states()[1] + (1.0 - alpha) * ID4 / 4.0


def end_observable(x: int) -> np.ndarray:
    """Dichotomic end-party observable (sigma_z + (-1)**x sigma_x)/sqrt(2)."""
    if x not in (0, 1):
        raise RangeError(f"end-party input must be 0 or 1, got {x}")
    return (PAULI_Z + (-1) ** x * PAULI_X) / np.sqrt(2.0)


def partial_bsm_observable(x: int) -> np.ndarray:
    """Two-qubit parity observable sigma_z x sigma_z (x=0) or sigma_x x sigma_x (x=1)."""
    if x not in (0, 1):
        raise RangeError(f"intermediate input must be 0 or 1, got {x}")
    s = PAULI_Z if x == 0 else PAULI_X
    return np.kron(s, s)


def bsm_projectors() -> list[np.ndarray]:
    """The four Bell projectors in outcome order 0..3.

    Outcome 2*b0 + b1 carries bit b0 = eigenvalue bit of sigma_z x sigma_z
    and bit b1 = eigenvalue bit of sigma_x x sigma_x, so the order is
    phi+, phi-, psi+, psi-.
    """
    s = 1.0 / np.sqrt(2.0)
    kets = [
        np.array([s, 0.0, 0.0, s], dtype=complex),
        np.array([s, 0.0, 0.0, -s], dtype=complex),
        np.array([0.0, s, s, 0.0], dtype=complex),
        np.array([0.0, s, -s, 0.0], dtype=complex),
    ]
    return [np.outer(k, k.conj()) for k in kets]


@dataclass(eq=False)
class SourceState:
    """One two-qubit source: its density operator and, if known, the
    visibility used to build it (None for hand-supplied states)."""

    rho: np.ndarray
    alpha: float | None = None

    def __post_init__(self):
        self.rho = qlin.as_operator(self.rho)
        if self.rho.shape != (4, 4):
            raise ScenarioError(f"source state must be 4x4, got {self.rho.shape}")
        if not qlin.is_density_operator(self.rho, atol=1e-9):
            raise ScenarioError("source state is not a density operator")


@cache
def _werner_states() -> tuple[np.ndarray, np.ndarray]:
    """White noise and the singlet, checked once, read-only; werner(a) mixes them."""
    states = tuple(SourceState(rho).rho for rho in (ID4 / 4.0, singlet()))
    for rho in states:
        rho.setflags(write=False)
    return states


class Party(tuple):
    """One party's settings, checked: its operators, as a tuple, and
    elements, their read-only POVM element array E[x, a].  A party with one
    input has its projectors, in outcome order, as elements; any other has
    one dichotomic observable B per input, with elements (I + (-1)**a B)/2.
    A scenario holds a Party by reference and checks it no further, so a
    party that many positions or scenarios share is checked once; cache
    keeps what evaluators derive from its elements."""

    def __new__(cls, ops, dim: int, num_in: int):
        party = super().__new__(cls, ops)
        projective = num_in == 1
        name, square = (("projector", "idempotent") if projective
                        else ("observable", "dichotomic (square != identity)"))
        checked = []
        for op in map(qlin.as_operator, party):
            if op.shape != (dim, dim):
                raise ScenarioError(f"{name} must be {dim}x{dim}, got {op.shape}")
            if not qlin.is_hermitian(op, atol=1e-10):
                raise ScenarioError(f"{name} is not Hermitian")
            if not qlin.close_to(op @ op, op if projective else np.eye(dim), 1e-10, 1e-5):
                raise ScenarioError(f"{name} is not {square}")
            checked.append(op)
        if projective and not qlin.close_to(sum(checked, np.zeros((dim, dim), complex)),
                                            np.eye(dim), 1e-10, 1e-5):
            raise ScenarioError("projectors do not sum to the identity")
        rows = [checked] if projective else [[(np.eye(dim) + (-1) ** a * b) / 2.0
                                              for a in (0, 1)] for b in checked]
        party.elements = np.array(rows, dtype=complex)
        party.elements.setflags(write=False)
        party.cache = {}
        return party

    def __reduce__(self):  # copy and pickle check the operators again
        return Party, (tuple(self), self.elements.shape[-1], self.elements.shape[0])


def _checked(ops, dim: int, num_in: int, num_out: int) -> Party:
    """ops as a Party of the given shape: one of that shape as it is, else checked."""
    if isinstance(ops, Party) and ops.elements.shape == (num_in, num_out, dim, dim):
        return ops
    return Party(ops, dim, num_in)


@dataclass(eq=False)
class NetworkScenario:
    """A fully specified chain scenario.

    Each source is a checked SourceState, or a visibility a in [0, 1] for
    werner(a), whose matrix rhos() forms when an evaluator needs it.
    end_settings holds, for each end party (index 0 for party 1, index 1 for
    party n+1), its two dichotomic single-qubit observables.  For kind p22,
    intermediate_settings holds per intermediate party its two dichotomic
    two-qubit observables; for kind p14 it holds the four projectors of its
    Bell-basis measurement, in outcome order (alphabets gives the forms).
    The constructor stores each as a checked Party, taking one of the right
    shape as it is.
    """

    n: int
    kind: str
    sources: list[SourceState | float]
    end_settings: list[list[np.ndarray]]
    intermediate_settings: list[list[np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        check_chain(self.n, self.kind)
        if len(self.sources) != self.n:
            raise ScenarioError(f"expected {self.n} sources, got {len(self.sources)}")
        self.sources = [s if isinstance(s, SourceState) else _visibility(s, source)
                        for source, s in enumerate(self.sources, 1)]
        if len(self.end_settings) != 2 or any(len(obs) != 2 for obs in self.end_settings):
            raise ScenarioError("end_settings must hold two observables per end party")
        ins, outs = alphabets(self.kind, self.n)
        self.end_settings = [_checked(obs, 2, ins[0], outs[0]) for obs in self.end_settings]
        if len(self.intermediate_settings) != self.n - 1:
            raise ScenarioError(
                f"expected {self.n - 1} intermediate settings, got {len(self.intermediate_settings)}"
            )
        mids = []
        for ops, num_in, num_out in zip(self.intermediate_settings, ins[1:], outs[1:]):
            count, form = (num_out, "projectors") if num_in == 1 else (num_in, "observables")
            if len(ops) != count:
                raise ScenarioError(f"{self.kind} intermediates need {_COUNT_WORDS[count]} {form}")
            mids.append(_checked(ops, 4, num_in, num_out))
        self.intermediate_settings = mids

    @property
    def num_parties(self) -> int:
        return self.n + 1

    @property
    def parties(self) -> tuple[Party, ...]:
        """The checked parties in party order."""
        return (self.end_settings[0], *self.intermediate_settings, self.end_settings[1])

    @property
    def elements(self) -> tuple[np.ndarray, ...]:
        """Each party's read-only POVM element array E[x, a], in party order."""
        return tuple(p.elements for p in self.parties)

    def rhos(self) -> list[np.ndarray]:
        """Each source's density operator: its state's rho, or werner(a)."""
        return [s.rho if isinstance(s, SourceState) else werner(s) for s in self.sources]


def _visibility(a, source: int) -> float:
    """a as a float in [0, 1]; RangeError naming its source otherwise, NaN included."""
    a = float(a)
    if not 0.0 <= a <= 1.0:
        raise RangeError(f"visibility of source {source} must lie in [0, 1], got {a}")
    return a


def check_visibilities(n: int, alphas) -> list[float]:
    """A visibility profile as n floats, each in [0, 1].  A wrong count
    raises ScenarioError and a value outside [0, 1], or NaN, RangeError
    naming its source; neither message prints the profile."""
    alphas = [float(a) for a in alphas]
    if len(alphas) != n:
        raise ScenarioError(f"expected {n} visibilities, got {len(alphas)}")
    return [_visibility(a, source) for source, a in enumerate(alphas, 1)]


@cache
def _standard_chain_parties(kind: str) -> tuple[Party, Party]:
    """A standard chain's end party and intermediate, checked once per kind."""
    end = Party([end_observable(0), end_observable(1)], 2, 2)
    if kind == KIND_P22:
        return end, Party([partial_bsm_observable(0), partial_bsm_observable(1)], 4, 2)
    return end, Party(bsm_projectors(), 4, 1)


def standard_scenario(n: int, kind: str, alphas=None) -> NetworkScenario:
    """The reference scenario: Werner sources, standard settings everywhere.

    Args:
        n: number of sources (>= 2).
        kind: "p22" or "p14".
        alphas: per-source visibilities; defaults to all ones (pure singlets).

    Kind and n are checked by check_chain, then n by CHAIN_LENGTH_GUARD
    before anything that grows with n, and the profile by check_visibilities.
    The scenario holds the visibilities and the kind's two parties, checked
    once per process, so it checks no operator and no state.
    """
    check_chain(n, kind)
    check_size(n, CHAIN_LENGTH_GUARD, f"chain of {n} sources")
    sources = [1.0] * n if alphas is None else check_visibilities(n, alphas)
    end, mid = _standard_chain_parties(kind)
    return NetworkScenario(n=n, kind=kind, sources=sources, end_settings=[end, end],
                           intermediate_settings=[mid] * (n - 1))


def _matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def scenario_to_json(scenario: NetworkScenario) -> dict:
    """Plain-dict form of a scenario; floats survive a JSON round trip exactly."""
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "n": scenario.n,
        "kind": scenario.kind,
        "sources": [
            {"alpha": s.alpha if isinstance(s, SourceState) else s, "rho": _matrix_to_json(rho)}
            for s, rho in zip(scenario.sources, scenario.rhos())
        ],
        "end_settings": [[_matrix_to_json(o) for o in obs] for obs in scenario.end_settings],
        "intermediate_settings": [
            [_matrix_to_json(o) for o in ops] for ops in scenario.intermediate_settings
        ],
    }


def scenario_from_json(doc: dict) -> NetworkScenario:
    """Inverse of scenario_to_json.  A document that is not an object, lacks
    a key or holds a value of the wrong type raises ScenarioError."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"a scenario document is a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioError(f"unsupported scenario schema version {version!r}")
    try:
        sources = [SourceState(_matrix_from_json(s["rho"]), alpha=s.get("alpha"))
                   for s in doc["sources"]]
        ends = [[_matrix_from_json(o) for o in obs] for obs in doc["end_settings"]]
        mids = [[_matrix_from_json(o) for o in ops] for ops in doc["intermediate_settings"]]
        n, kind = int(doc["n"]), check_kind(doc["kind"])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario document: {exc!r}") from None
    return NetworkScenario(n=n, kind=kind, sources=sources, end_settings=ends,
                           intermediate_settings=mids)
