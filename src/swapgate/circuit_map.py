"""Lumped-circuit to spin-model mapping for the four-transmon gate chain.

The chain couples four grounded transmons in series: a Josephson junction in
parallel with an inductor joins each end qubit to its neighboring control
qubit, and a junction in parallel with a capacitor joins the two controls.
Quantizing, expanding the potential to quartic order, and truncating gives
the spin frequencies, the XX/YY/ZZ couplings, the anharmonicities, and the
three-level coefficients of the control sites.  Spatial symmetry leaves two
distinct sites (end and control).  ``map_sites`` maps them for a batch of
circuits at once, one per column of an (8, m) array whose rows are the
circuit values, through the closed-form inverse of the gate capacitance
matrix; the end and control sites are the two rows of one array wherever
their formulas agree, so that most steps are one numpy call for both.  It
is pow-free: the quartic root is ``sqrt(sqrt(r))``, integer powers are
products and sums run left to right, so every operation is IEEE-rounded
and a circuit gives the same bits alone or in any batch (``np.power`` and
Python's ``**`` can differ in the last bit, and ``np.sum`` pairs its
terms).  It runs in two stages, each formula written once:
``map_cost_fields`` computes the six fields the search's cost reads, and
``map_sites`` adds the rest from its intermediates, the capacitance
matrix's normalized determinant and condition number among them.  Neither
holds an ``np.errstate``: their callers do.  ``circuit_to_spin`` is
``map_sites`` on one circuit under its own ``np.errstate``, checked
against the singularity thresholds of the general-chain
``inverse_capacitance``; the search's batched cost runs the first stage
alone, under the one ``np.errstate`` that ``search`` holds for its whole
descent, and checks nothing: every point of its box maps (see
``swapgate.search``).  A mapped circuit is simulated through its couplings:
``symmetric_chain`` of its ``j1x``, ``j1z``, ``j2x``, ``j2z`` and ``delta``
in the library, or, on the command line, the ``circuit-map`` output run
with ``[model] source = spin``; no gate experiment takes a circuit.

Unit bridge: Josephson energies are entered in 2pi*GHz, capacitances in fF,
inductances in nH.  Capacitive and inductive energies are converted to
2pi*GHz through two frozen constants,

    CAP_ENERGY_SCALE = e^2 / (2 h) per fF  = 19.3594 GHz*fF
    IND_ENERGY_SCALE = (Phi_0 / 2 pi)^2 / h per nH / (2 pi)^2 = 4.1408

so E_C,i = CAP_ENERGY_SCALE * (C^-1)_ii and E_L = IND_ENERGY_SCALE *
(2 pi)^2 / L.  These are the physical constants, not a fit: each scales
every site alike, so no choice of the two can change the per-site ratios of
the charging energies, and the published table's columns demand ratios the
tabulated capacitances do not give (acceptance criterion 1).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .spin_model import (TWO_PI, SpinModelParams, QutritModelParams, ladder_strengths,
                         symmetric_chain)

# e^2/(2h) in GHz*fF and (Phi_0/2pi)^2/h in GHz*nH (divided by (2pi)^2 so the
# inductive energies can be written with their conventional (2pi)^2/L factor).
CAP_ENERGY_SCALE = 19.3594
IND_ENERGY_SCALE = 163.4566 / (TWO_PI**2)


class SingularCapacitanceError(ValueError):
    """The capacitance matrix is numerically singular."""


class MappingError(ValueError):
    """Unphysical circuit parameters."""


@dataclass(frozen=True)
class CircuitParams:
    """Lumped-element values of the symmetric four-qubit circuit.

    ``e1``/``e2`` are the end and control qubit junction energies, ``e12`` and
    ``e23`` the coupling junction energies (2pi*GHz); ``c1``/``c2`` the end
    and control shunt capacitances and ``c23`` the control-control coupling
    capacitance (fF); ``l12`` the end-control coupling inductance (nH).
    Spatial symmetry fixes the mirrored elements.
    """

    e1: float
    e2: float
    e12: float
    e23: float
    c1: float
    c2: float
    c23: float
    l12: float

    def __post_init__(self) -> None:
        for name in CIRCUIT_NAMES:
            # NaN fails both comparisons
            if not 0 < getattr(self, name) < np.inf:
                raise MappingError(f"{name} must be strictly positive and finite")


#: the eight circuit values, in field order
CIRCUIT_NAMES = tuple(f.name for f in fields(CircuitParams))


@dataclass(frozen=True)
class SpinMapResult:
    """Spin-model parameters produced by the circuit mapping.

    Frequencies in 2pi*GHz; couplings, detuning and three-level coefficients
    in 2pi*MHz; anharmonicities relative (dimensionless); the condition
    number is that of the gate capacitance matrix.
    """

    omega1: float
    omega2: float
    j1x: float
    j1z: float
    j2x: float
    j2y: float
    j2z: float
    delta: float
    anh_rel_1: float
    anh_rel_2: float
    k23x: float
    m23x: float
    r23x: float
    p23x: float
    t_coeffs: tuple[float, ...]
    s_coeffs: tuple[float, ...]
    condition_number: float


_SCALAR_FIELDS = tuple(
    f.name for f in fields(SpinMapResult) if f.name not in ("t_coeffs", "s_coeffs")
)


def capacitance_matrix(
    shunts: Sequence[float],
    couplings: Sequence[float],
    augment_diagonal: bool = True,
    coupling_sign: float = -1.0,
) -> np.ndarray:
    """Capacitance matrix of a linear chain.

    With the physical (node-flux kinetic energy) convention the diagonal is
    the shunt plus all incident coupling capacitances and off-diagonals are
    -C_edge.  ``augment_diagonal=False`` with ``coupling_sign=+1`` gives the
    node-local convention in which the diagonal carries only the shunt and
    couplings enter with a plus sign; that variant exhibits the classic
    singular chain whenever N+1 is divisible by 3 for uniform values.
    """
    n = len(shunts)
    if len(couplings) != n - 1:
        raise MappingError("need one coupling capacitance per adjacent pair")
    k = np.diag(np.asarray(shunts, dtype=float))
    for i, c in enumerate(couplings):
        if augment_diagonal:
            k[i, i] += c
            k[i + 1, i + 1] += c
        k[i, i + 1] += coupling_sign * c
        k[i + 1, i] += coupling_sign * c
    return k


def inverse_capacitance(k: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse with a condition-number report; raises on singular input.

    A matrix counts as singular when its determinant, normalized by the
    product of row norms, falls below 1e-12, or its condition number exceeds
    1e12.
    """
    k = np.asarray(k, dtype=float)
    scale = float(np.prod(np.linalg.norm(k, axis=1))) or 1.0
    cond = float(np.linalg.cond(k))
    _check_capacitance(float(np.linalg.det(k)) / scale, cond)
    return np.linalg.inv(k), cond


#: a capacitance matrix is singular below this normalized determinant, and
#: ill-conditioned above this condition number
_DET_FLOOR, _COND_CEILING = np.array(1e-12), np.array(1e12)


def _check_capacitance(det: float, cond: float) -> None:
    """Raise on a normalized determinant below ``_DET_FLOOR`` or a condition
    above ``_COND_CEILING``."""
    if abs(det) < _DET_FLOOR:
        raise SingularCapacitanceError(
            f"capacitance matrix is singular (normalized det {det:.2e})"
        )
    if cond > _COND_CEILING:
        raise SingularCapacitanceError(
            f"capacitance matrix is ill-conditioned (cond {cond:.2e})"
        )


def gate_capacitance_matrix(params: CircuitParams) -> np.ndarray:
    """Physical 4x4 capacitance matrix of the gate circuit (only C23 couples)."""
    return capacitance_matrix(
        [params.c1, params.c2, params.c2, params.c1],
        [0.0, params.c23, 0.0],
    )


# The first stage's operands as 0-d arrays: NumPy 2 promotes a Python-float
# operand (a weak scalar) on every call, which a 0-d float64 array skips
# with the same bits.
_HALF, _QUARTER, _TWO, _FOUR, _THOUSAND = map(np.array, (0.5, 0.25, 2.0, 4.0, 1000.0))
_MINUS_HALF, _MINUS_QUARTER = np.array(-0.5), np.array(-0.25)
_CAP, _MINUS_CAP = np.array(CAP_ENERGY_SCALE), np.array(-CAP_ENERGY_SCALE)
_IND = np.array(IND_ENERGY_SCALE * TWO_PI**2)  # E_L = _IND / L


def map_cost_fields(x: np.ndarray) -> tuple[dict[str, np.ndarray], tuple]:
    """The first stage of ``map_sites``: the fields the search's cost reads.

    Takes the (8, m) circuit columns of ``map_sites`` and returns the
    couplings ``j1x``, ``j1z``, ``j2x``, ``j2z``, the detuning ``delta`` and
    ``anh_rel_1``.  The second element holds the intermediates that
    ``map_sites`` completes the other fields from.

    The end (a) and control (b) sites are mapped through the closed form of
    K = ``gate_capacitance_matrix``: with d = c2 (c2 + 2 c23), K^-1 is 1/c1
    on the ends, (c2+c23)/d on the controls and +c23/d between them; K has
    eigenvalues c1, c1, c2, c2 + 2 c23 and determinant c1^2 d, against a
    row-norm product c1^2 ((c2+c23)^2 + c23^2).  The two sites are the two
    rows of one array wherever their formulas agree.
    """
    # the CIRCUIT_NAMES but e1 and e2, which only x[:2] reads
    e12, e23, c1, c2, c23, l12 = x[2], x[3], x[4], x[5], x[6], x[7]
    c2_2c23 = c2 + _TWO * c23
    d = c2 * c2_2c23
    s = c2 + c23
    e_lb = _IND / l12  # both inductive bonds identical

    # rows: end site (a), control site (b)
    e_c = _CAP * np.array([np.reciprocal(c1), s / d])  # 2pi*GHz per site
    e_j = x[:2] + e12  # e1 + e12, e2 + e12
    e_j[1] += e23
    e_jl = e_j + e_lb
    r = _TWO * e_c / e_jl
    t = np.sqrt(np.sqrt(r))
    s_mode = _FOUR * np.sqrt(_HALF * e_c * e_jl)
    t2 = t * t
    t3, t4 = t2 * t, t2 * t2
    tb, tb2 = t[1], t2[1]
    tb_tb = np.array([tb, tb])  # a (2, m) operand is cheaper than broadcasting tb

    bond_12 = e12 * t2[0] * tb2  # Josephson energy of bond (a, b)
    # the junctions' quartic shift, negative: s - q is s + (-q) exactly
    quartic = _MINUS_HALF * e_j * t4
    omega = s_mode + quartic - bond_12
    omega[1] -= e23 * tb2 * tb2
    anh_rel = quartic / omega

    # rows: bond (a, b), bond (b, b), whose junction energies are x[2:4];
    # j1x~ and j2x~, then j1z and j2z
    jx_tilde = (_MINUS_HALF * np.array([e12 + e_lb, e23]) * t * tb_tb
                + _QUARTER * x[2:4] * (t3 * tb_tb + t * t3[1]))
    t_tb = t * tb_tb  # ta tb, tb tb
    jz = _MINUS_QUARTER * x[2:4] * (t_tb * t_tb)
    j2y = _MINUS_CAP * (c23 / d) / tb2
    j2x = jx_tilde[1] + j2y

    # in 2pi*MHz, scaled from 2pi*GHz
    jz = jz * _THOUSAND
    fields = {
        "j1x": jx_tilde[0] * _THOUSAND, "j1z": jz[0], "j2x": j2x * _THOUSAND,
        "j2z": jz[1], "delta": (omega[1] - omega[0]) * _THOUSAND,
        "anh_rel_1": anh_rel[0],
    }
    return fields, (r, t, t3, s_mode, omega, anh_rel, j2y, c2_2c23, d, s)


def map_sites(x: np.ndarray) -> dict[str, np.ndarray]:
    """Map circuits, one per column of ``x`` (an (8, m) array whose rows are
    the ``CIRCUIT_NAMES``), to the ``SpinMapResult`` fields of their two
    distinct sites, as arrays.

    ``map_cost_fields`` is the first stage; this adds the other fields from
    its intermediates.  Besides the fields, the result holds the per-site
    mode scales and frequencies ``ta``, ``tb``, ``sa``, ``sb``, and what
    ``circuit_to_spin`` checks: the normalized determinant ``det_norm`` and
    the quartic-root radicands ``ra``, ``rb``.

    Circuits are mapped independently and without checks (an unphysical one
    gives meaningless numbers or NaN), and the caller holds the
    ``np.errstate`` that silences their warnings.  The formula uses only
    IEEE-rounded elementwise operations in a fixed order -- the quartic
    root is ``sqrt(sqrt(r))``, integer powers are products, sums run left
    to right -- so a circuit maps to the same bits whatever the batch
    around it.
    """
    fields, (r, t, t3, s_mode, omega, anh_rel, j2y, c2_2c23, d, s) = map_cost_fields(x)
    e23, c1, c2, c23, tb, tb3 = x[3], x[4], x[5], x[6], t[1], t3[1]
    k23x = -e23 * tb * tb + e23 * tb3 * tb / 6.0
    m23x = e23 * tb * tb3 / 6.0
    r23x, p23x = ladder_strengths(j2y, k23x, m23x)

    # in 2pi*MHz, scaled from 2pi*GHz by one stacked multiply
    ghz = {"j2y": j2y, "k23x": k23x, "m23x": m23x, "r23x": r23x, "p23x": p23x}
    return {
        **fields,
        **dict(zip(ghz, np.array(list(ghz.values())) * 1000.0)),
        "omega1": omega[0], "omega2": omega[1], "anh_rel_2": anh_rel[1],
        "ta": t[0], "tb": tb, "sa": s_mode[0], "sb": s_mode[1],
        "det_norm": d / (s * s + c23 * c23),  # c1^2 cancels
        "condition_number": np.maximum(c1, c2_2c23) / np.minimum(c1, c2),  # c23 > 0
        "ra": r[0], "rb": r[1],
    }


def spin_result(sites: dict[str, np.ndarray], index: int) -> SpinMapResult:
    """One circuit of a ``map_sites`` result as a ``SpinMapResult`` of floats."""
    v = {name: float(arr[index]) for name, arr in sites.items()}
    ta, tb, sa, sb = v["ta"], v["tb"], v["sa"], v["sb"]
    return SpinMapResult(
        **{name: v[name] for name in _SCALAR_FIELDS},
        t_coeffs=(ta, tb, tb, ta),
        s_coeffs=(sa, sb, sb, sa),
    )


def circuit_to_spin(params: CircuitParams) -> SpinMapResult:
    """Map lumped-circuit values to spin-model parameters (``map_sites`` on
    one circuit).

    Raises ``SingularCapacitanceError`` under the singularity thresholds of
    ``inverse_capacitance``, and ``MappingError`` on a nonpositive
    quartic-root argument.
    """
    with np.errstate(all="ignore"):
        sites = map_sites(np.array([[getattr(params, n)] for n in CIRCUIT_NAMES],
                                   dtype=float))
    _check_capacitance(float(sites["det_norm"][0]), float(sites["condition_number"][0]))
    if sites["ra"][0] <= 0 or sites["rb"][0] <= 0:
        raise MappingError("nonpositive quartic-root argument in mode scale")
    return spin_result(sites, 0)


# ---------------------------------------------------------------------------
# Published parameter table (16 solutions of the circuit search)
# ---------------------------------------------------------------------------

#: columns: e1, e2, e12, e23 [2pi*GHz], c1, c2, c23 [fF], l12 [nH],
#: omega1, omega2 [2pi*GHz], j1x, j1z, j2x, j2z, delta [2pi*MHz],
#: anh1_pct, anh2_pct [%], k23x, m23x [2pi*MHz]
TABLE_S1 = {
    1: (532.0, 464.1, 187.9, 410.4, 729.4, 65.6, 279.4, 36.7,
        10.7, 11.3, 42.0, 42.0, -494.6, 804.1, 619.0, 0.16, 4.66, 2680.3, -536.1),
    2: (119.2, 179.6, 86.8, 165.5, 956.6, 332.9, 440.2, 81.2,
        4.4, 3.8, 43.2, 43.2, -764.3, 453.7, -621.1, 0.13, 10.48, 1512.5, -302.5),
    3: (215.4, 219.4, 100.5, 200.6, 907.9, 223.6, 23.8, 70.9,
        6.1, 6.7, 47.3, 46.9, -552.1, 844.6, 585.0, 0.19, 10.28, 2815.4, -563.1),
    4: (310.2, 371.2, 74.9, 272.4, 183.5, 25.8, 649.2, 93.9,
        16.1, 19.2, 44.9, 44.9, 962.1, 562.8, 3049.7, 0.51, 0.52, 1876.0, -375.2),
    5: (690.3, 486.3, 169.0, 393.8, 466.5, 48.7, 391.9, 40.4,
        15.1, 14.2, 33.3, 33.2, -987.4, 498.0, -978.9, 0.21, 1.37, 1660.0, -332.0),
    6: (561.6, 438.5, 186.0, 397.1, 926.3, 76.2, 240.4, 37.3,
        9.7, 10.7, 40.9, 40.9, -540.4, 1007.1, 933.4, 0.15, 6.88, 3357.1, -671.4),
    7: (379.3, 254.1, 90.3, 220.9, 850.3, 48.2, 84.0, 79.1,
        8.3, 12.1, 35.5, 35.5, 764.2, 1107.6, 3743.7, 0.21, 4.74, 3692.0, -738.4),
    8: (699.7, 601.5, 230.9, 517.1, 664.2, 62.5, 507.3, 29.4,
        12.8, 12.6, 35.7, 35.7, -696.6, 582.7, -227.7, 0.16, 2.63, 1942.3, -388.5),
    9: (156.9, 192.3, 80.7, 181.9, 950.5, 734.8, 839.6, 89.9,
        5.1, 5.8, 51.7, 51.7, 727.6, 1081.2, 707.2, 0.21, 14.39, 3604.1, -720.8),
    10: (699.8, 611.2, 236.7, 547.7, 676.7, 64.1, 185.7, 29.0,
         12.7, 12.9, 45.4, 45.4, 857.1, 965.2, 216.1, 0.15, 4.73, 3217.3, -643.5),
    11: (313.1, 199.6, 78.3, 185.2, 994.4, 152.6, 302.3, 92.1,
         7.0, 7.4, 34.7, 34.7, 936.2, 1137.7, 403.0, 0.21, 10.57, 3792.2, -758.4),
    12: (144.6, 177.9, 72.0, 167.2, 965.4, 619.3, 20.0, 98.8,
         4.8, 4.2, 38.1, 38.1, 980.3, 641.8, -677.1, 0.22, 11.29, 2139.2, -427.8),
    13: (113.3, 277.9, 118.7, 264.2, 987.7, 706.6, 583.2, 58.8,
         4.3, 3.6, 51.9, 51.9, 852.9, 538.2, -629.5, 0.02, 11.81, 1793.9, -358.8),
    14: (167.1, 251.7, 104.2, 238.1, 978.3, 381.5, 999.8, 67.6,
         5.2, 4.7, 45.4, 45.4, 965.8, 724.8, -482.0, 0.15, 11.73, 2415.9, -483.2),
    15: (178.4, 352.0, 144.2, 324.9, 953.8, 230.0, 488.4, 47.7,
         5.4, 5.0, 41.4, 41.4, 661.6, 446.5, -430.4, 0.08, 6.46, 1488.2, -297.6),
    16: (132.9, 272.4, 112.1, 255.5, 970.5, 418.1, 408.4, 61.9,
         4.6, 3.7, 41.5, 41.5, 882.6, 438.3, -888.5, 0.07, 8.73, 1461.1, -292.2),
}

TABLE_SPIN_COLUMNS = (
    "omega1", "omega2", "j1x", "j1z", "j2x", "j2z", "delta",
    "anh1_pct", "anh2_pct", "k23x", "m23x",
)


def table_row(index: int) -> dict[str, float]:
    """Published circuit and spin columns for a table row (1-based index)."""
    if index not in TABLE_S1:
        raise KeyError(f"table rows run 1..16, got {index}")
    row = TABLE_S1[index]
    return dict(zip(CIRCUIT_NAMES + TABLE_SPIN_COLUMNS, row))


def table_branch(index: int) -> str:
    """Detuning branch of a table row: rows 1-8 are plus, 9-16 minus."""
    return "plus" if index <= 8 else "minus"


def table_circuit_params(index: int) -> CircuitParams:
    r = table_row(index)
    return CircuitParams(**{name: r[name] for name in CIRCUIT_NAMES})


def table_spin_params(index: int) -> SpinModelParams:
    """Chain parameters taken verbatim from a table row's spin columns."""
    r = table_row(index)
    return symmetric_chain(r["j1x"], r["j1z"], r["j2x"], r["j2z"], r["delta"])


def table_qutrit_params(index: int) -> QutritModelParams:
    """Three-level control model taken from a table row.

    The published 1<->2 coefficients satisfy k23x + 2 m23x = 2 J2z exactly,
    which identifies the tabulated transverse ladder pair with the quartic
    expansion and fixes j2y = j2x - 2 j2z; r23x and p23x follow from them by
    ``ladder_strengths``.  The sideband mismatch frequency is the tabulated
    relative anharmonicity times omega2.
    """
    r = table_row(index)
    r23x, p23x = ladder_strengths(r["j2x"] - 2.0 * r["j2z"], r["k23x"], r["m23x"])
    return QutritModelParams(
        qubit=table_spin_params(index),
        sideband_gap=(r["anh2_pct"] / 100.0) * (r["omega2"] * 1000.0),
        r23x=r23x,
        p23x=p23x,
    )


def table_roundtrip_errors() -> dict[int, dict[str, tuple[float, float, float]]]:
    """(mapped, published, tolerance) per spin column for all 16 rows.

    Each column is the ``SpinMapResult`` field of its name; ``anhN_pct`` is
    ``abs(anh_rel_N)`` in percent.  The tolerance is max(1% of the published
    value, one unit in its last printed digit: 0.01 for a percentage, else
    0.1).
    """
    out: dict[int, dict[str, tuple[float, float, float]]] = {}
    for i in TABLE_S1:
        res = circuit_to_spin(table_circuit_params(i))
        row = table_row(i)
        out[i] = {}
        for col in TABLE_SPIN_COLUMNS:
            pct = col.endswith("_pct")
            mapped = getattr(res, col.removesuffix("_pct").replace("anh", "anh_rel_"))
            if pct:
                mapped = abs(mapped) * 100.0
            out[i][col] = (mapped, row[col], max(0.01 * abs(row[col]), 0.01 if pct else 0.1))
    return out
