"""Verbatim transcriptions of the published closed-form field components.

The built-in trefoil and figure-eight knots come with printed closed-form
expressions for (Bx, By, Bz): one term per stick per component, each of the
shape

    sign * N / ((A)^2 + (B)^2) * [ E1/sqrt(R1) - E2/sqrt(R2) ].

They are transcribed here exactly as printed, including the misprints
(dropped signs, a wrong endpoint constant, one bad radicand), because the
printed formulas are themselves an artifact worth testing against.  The
generic superposition engine is the source of truth; ``discrepancy_ledger``
matches every printed term to the engine stick it describes (terms pair up
uniquely by the denominator, which names the stick's two fixed transverse
coordinates) and enumerates exactly where the two disagree.  Corrections
live only in that ledger, never in the tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .biot_savart import OnConductorError, _stick_field
from .geometry import CANONICAL, LatticeKnot, segments

_AXES = "xyz"

# value = const + sign * coordinate
LinForm = tuple[float, int, str]

_LIN_RE = re.compile(r"^(-)?\(?(?:(\d+)-)?([xyz])\)?$")


def _lin(text: str) -> LinForm:
    m = _LIN_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse linear form {text!r}")
    neg, const, var = m.groups()
    c, s = (float(const), -1) if const is not None else (0.0, 1)
    if neg:
        c, s = -c, -s
    return (c, s, var)


def _rad(text: str) -> tuple[LinForm, LinForm, LinForm]:
    parts = tuple(_lin(p) for p in text.split("|"))
    if len(parts) != 3:
        raise ValueError(f"radicand needs 3 forms: {text!r}")
    return parts


@dataclass(frozen=True)
class BracketEntry:
    num: LinForm
    radicand: tuple[LinForm, LinForm, LinForm]


@dataclass(frozen=True)
class TranscribedTerm:
    component: str            # "Bx" | "By" | "Bz"
    index: int                # 1-based position within the printed component
    sign: int                 # leading sign as printed (+1 when none printed)
    num: LinForm
    den: tuple[LinForm, LinForm]
    first: BracketEntry
    second: BracketEntry      # combined as [first - second]


def _term(sign, num, den, n1, r1, n2, r2):
    d1, d2 = den.split("|")
    return (
        1 if sign == "+" else -1,
        _lin(num),
        (_lin(d1), _lin(d2)),
        BracketEntry(_lin(n1), _rad(r1)),
        BracketEntry(_lin(n2), _rad(r2)),
    )


def _component(name, rows):
    return tuple(
        TranscribedTerm(name, i + 1, sign, num, den, first, second)
        for i, (sign, num, den, first, second) in enumerate(rows)
    )


_TREFOIL_BX = _component("Bx", [
    _term("-", "z", "6-x|z", "4-y", "6-x|4-y|z", "2-y", "6-x|2-y|z"),
    _term("-", "4-y", "6-x|4-y", "4-z", "6-x|4-y|4-z", "-z", "6-x|4-y|z"),
    _term("+", "4-z", "x|4-z", "-y", "x|y|4-z", "4-y", "x|4-y|4-z"),
    _term("+", "2-z", "4-x|2-z", "6-y", "4-x|6-y|2-z", "-y", "4-x|y|2-z"),
    _term("-", "6-y", "4-x|6-y", "6-z", "4-x|6-y|6-z", "2-z", "4-x|6-y|2-z"),
    _term("+", "6-z", "2-x|6-z", "2-y", "2-x|2-y|6-z", "6-y", "2-x|6-y|6-z"),
    _term("-", "2-y", "2-x|2-y", "-z", "2-x|2-y|z", "6-z", "2-x|2-y|6-z"),
    _term("+", "y", "x|y", "2-z", "x|y|2-z", "4-z", "x|y|4-z"),
])

_TREFOIL_BY = _component("By", [
    _term("+", "z", "2-y|z", "6-x", "6-x|2-y|z", "2-x", "2-x|2-y|z"),
    _term("+", "6-x", "6-x|4-y", "4-z", "6-x|4-y|4-z", "-z", "6-x|4-y|z"),
    _term("-", "4-z", "4-y|4-z", "6-x", "6-x|4-y|4-z", "-x", "x|4-y|4-z"),
    _term("+", "-x", "x|y", "2-z", "x|y|2-z", "4-z", "x|y|4-z"),
    _term("-", "2-z", "y|2-z", "4-x", "4-x|y|2-z", "-x", "x|y|2-z"),
    _term("+", "4-x", "4-x|6-y", "6-z", "4-x|6-y|6-z", "2-z", "4-x|6-y|2-z"),
    _term("-", "6-z", "6-y|6-z", "2-x", "2-x|6-y|6-z", "4-x", "4-x|6-y|6-z"),
    _term("+", "2-x", "2-x|2-y", "-z", "2-x|2-y|z", "6-z", "2-x|2-y|6-z"),
])

_TREFOIL_BZ = _component("Bz", [
    _term("+", "2-y", "2-y|z", "6-x", "6-x|2-y|z", "2-x", "2-x|2-y|z"),
    _term("-", "6-x", "6-x|z", "4-y", "6-x|4-y|z", "-(2-y)", "6-x|2-y|z"),
    _term("+", "4-y", "4-y|4-z", "6-x", "6-x|4-y|4-z", "-x", "x|4-y|4-z"),
    _term("+", "x", "x|4-z", "-y", "x|y|4-z", "4-y", "x|4-y|4-z"),
    _term("-", "y", "y|2-z", "4-x", "4-x|y|2-z", "-x", "x|y|2-z"),
    _term("-", "4-x", "4-x|2-z", "6-y", "4-x|6-y|2-z", "-y", "4-x|y|2-z"),
    _term("+", "6-y", "6-y|6-z", "2-x", "2-x|6-y|6-z", "4-x", "4-x|6-y|6-z"),
    _term("-", "2-x", "2-x|6-z", "2-y", "2-x|2-y|6-z", "6-y", "2-x|6-y|6-z"),
])

_FIG8_BX = _component("Bx", [
    _term("-", "z", "4-x|z", "6-y", "4-x|6-y|z", "2-y", "4-x|2-y|z"),
    _term("-", "6-y", "4-x|6-y", "4-z", "4-x|6-y|4-z", "-z", "4-x|6-y|z"),
    _term("+", "4-z", "4-x|4-z", "-y", "4-x|y|4-z", "6-y", "4-x|6-y|4-z"),
    _term("+", "4-z", "x|4-z", "8-y", "x|8-y|4-z", "-y", "x|y|4-z"),
    _term("-", "8-y", "6-x|8-y", "2-z", "6-x|8-y|2-z", "4-z", "6-x|8-y|4-z"),
    _term("+", "2-z", "6-x|2-z", "8-y", "6-x|8-y|2-z", "4-y", "6-x|4-y|2-z"),
    _term("+", "2-z", "2-x|2-z", "8-y", "2-x|8-y|2-z", "4-y", "2-x|4-y|2-z"),
    _term("-", "10-y", "2-x|10-y", "6-z", "2-x|10-y|6-z", "2-z", "2-x|10-y|2-z"),
    _term("+", "6-z", "2-x|6-z", "10-y", "2-x|10-y|6-z", "2-y", "2-x|2-y|6-z"),
    _term("-", "2-y", "2-x|2-y", "-z", "2-x|2-y|z", "6-z", "2-x|2-y|6-z"),
])

_FIG8_BY = _component("By", [
    _term("-", "z", "2-y|z", "4-x", "4-x|2-y|z", "2-x", "2-x|2-y|z"),
    _term("+", "4-x", "4-x|6-y", "4-z", "4-x|6-y|4-z", "-z", "4-x|6-y|z"),
    _term("-", "4-z", "y|4-z", "-x", "x|y|4-z", "4-x", "4-x|y|4-z"),
    _term("+", "-(4-z)", "8-y|4-z", "6-x", "6-x|8-y|4-z", "-x", "x|8-y|4-z"),
    _term("+", "6-x", "6-x|8-y", "2-z", "6-x|8-y|2-z", "4-z", "6-x|8-y|4-z"),
    _term("-", "2-z", "4-y|2-z", "2-x", "2-x|4-y|2-z", "6-x", "6-x|4-y|2-z"),
    _term("+", "2-x", "2-x|10-y", "6-z", "2-x|10-y|6-z", "2-z", "2-x|10-y|2-z"),
    _term("+", "2-x", "2-x|2-y", "6-z", "2-x|2-y|6-z", "2-z", "2-x|2-y|2-z"),
])

_FIG8_BZ = _component("Bz", [
    _term("+", "2-y", "2-y|z", "4-x", "4-x|2-y|z", "2-x", "2-x|2-y|z"),
    _term("-", "4-x", "4-x|z", "6-y", "4-x|6-y|z", "2-y", "6-x|2-y|z"),
    _term("-", "4-x", "4-x|4-z", "-y", "4-x|y|4-z", "6-y", "4-x|6-y|4-z"),
    _term("-", "y", "y|4-z", "-x", "x|y|4-z", "4-x", "4-x|y|4-z"),
    _term("+", "x", "x|4-z", "8-y", "x|8-y|4-z", "-y", "x|y|4-z"),
    _term("+", "8-y", "8-y|4-z", "6-x", "6-x|8-y|4-z", "-x", "x|8-y|4-z"),
    _term("-", "6-x", "6-x|2-z", "4-y", "6-x|4-y|2-z", "8-y", "6-x|8-y|2-z"),
    _term("+", "4-y", "4-y|2-z", "2-x", "2-x|4-y|2-z", "6-x", "6-x|4-y|2-z"),
    _term("-", "2-x", "2-x|2-z", "8-y", "2-x|8-y|2-z", "4-y", "2-x|4-y|2-z"),
    _term("-", "2-x", "2-x|6-z", "2-y", "2-x|2-y|6-z", "10-y", "2-x|10-y|6-z"),
])

TERM_TABLES = {
    "3_1": {"Bx": _TREFOIL_BX, "By": _TREFOIL_BY, "Bz": _TREFOIL_BZ},
    "4_1": {"Bx": _FIG8_BX, "By": _FIG8_BY, "Bz": _FIG8_BZ},
}

SINGULARITY_FLOOR = 1e-6


def _lin_values(form: LinForm, pts: np.ndarray) -> np.ndarray:
    c, s, var = form
    return c + s * pts[:, _AXES.index(var)]


def term_values(label: str, points) -> dict[str, np.ndarray]:
    """Raw per-term values of every printed term at the given points.

    No singularity guard: a term evaluated on its own stick's axis yields
    inf/nan, which is the honest value of the printed expression there.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for comp, terms in TERM_TABLES[label].items():
            vals = np.empty((len(terms), len(pts)))
            for t_i, t in enumerate(terms):
                den = _lin_values(t.den[0], pts) ** 2 + _lin_values(t.den[1], pts) ** 2
                bracket = np.zeros(len(pts))
                for entry, es in ((t.first, 1.0), (t.second, -1.0)):
                    rad = sum(_lin_values(f, pts) ** 2 for f in entry.radicand)
                    bracket += es * _lin_values(entry.num, pts) / np.sqrt(rad)
                vals[t_i] = t.sign * _lin_values(t.num, pts) / den * bracket
            out[comp] = vals
    return out


def _singular_terms(label: str, pts: np.ndarray):
    for comp, terms in TERM_TABLES[label].items():
        for t in terms:
            den = _lin_values(t.den[0], pts) ** 2 + _lin_values(t.den[1], pts) ** 2
            rads = [
                sum(_lin_values(f, pts) ** 2 for f in entry.radicand)
                for entry in (t.first, t.second)
            ]
            bad = (den < SINGULARITY_FLOOR) | (rads[0] < SINGULARITY_FLOOR) \
                | (rads[1] < SINGULARITY_FLOOR)
            if np.any(bad):
                return comp, t.index
    return None


def eval_transcribed(label: str, point) -> np.ndarray:
    """Literal evaluation of the printed component formulas (k = 1).

    Faithful to the page: any misprint in the source expressions is
    reproduced, not repaired.  A point within the singularity floor of a
    term is refused with OnConductorError naming the term's 1-based stick
    and the point's distance from the circuit; a term is singular on its
    stick's whole axis line, so that distance can be large.
    """
    pts = np.asarray(point, dtype=float).reshape(1, 3)
    hit = _singular_terms(label, pts)
    if hit is not None:
        dist = _stick_field(CANONICAL[label]().sticks, pts)[1][0]
        stick = next(e.segment_index for e in discrepancy_ledger(label).entries
                     if (e.component, e.index) == hit)
        raise OnConductorError(pts[0], dist, segment_index=stick)
    vals = term_values(label, pts)
    return np.array([vals["Bx"].sum(), vals["By"].sum(), vals["Bz"].sum()])


# --- structural matching against the generic engine -------------------------

# Parity of (i, w, v) as a permutation of (0, 1, 2).
_EPS = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
}


def _canon_squared(form: LinForm) -> tuple[str, float]:
    """(c + s*v)^2 is insensitive to overall sign: canonicalize to (v, c')."""
    c, s, var = form
    return (var, (c if s == -1 else -c) + 0.0)


def _canon_numerator(form: LinForm) -> tuple[str, float, int]:
    """Rewrite c + s*v as f*(c' - v); returns (v, c', f)."""
    c, s, var = form
    return (var, c + 0.0, 1) if s == -1 else (var, -c + 0.0, -1)


@dataclass(frozen=True)
class _EngineTerm:
    component: str
    segment_index: int
    den_key: tuple
    num: tuple            # (var, const)
    atoms: frozenset      # {(G, endpoint, radicand_key)}


def _engine_terms(knot: LatticeKnot) -> dict[tuple, "_EngineTerm"]:
    """Expected printed shape of every stick's two component contributions."""
    out = {}
    for seg in segments(knot):
        w = int(seg.axis)
        trans = {int(ax): c for ax, c in seg.transverse}
        s_w, e_w = seg.span
        den_key = tuple(sorted((_AXES[ax], float(c)) for ax, c in trans.items()))
        for i in range(3):
            if i == w:
                continue
            v = 3 - i - w
            p = -_EPS[(i, w, v)]
            atoms = frozenset(
                (g, float(end), tuple(sorted(den_key + ((_AXES[w], float(end)),))))
                for g, end in ((-p, s_w), (p, e_w))
            )
            term = _EngineTerm(
                component="B" + _AXES[i],
                segment_index=seg.index,
                den_key=den_key,
                num=(_AXES[v], float(trans[v])),
                atoms=atoms,
            )
            out[(term.component, den_key)] = term
    return out


@dataclass(frozen=True)
class LedgerEntry:
    component: str
    index: int
    segment_index: int | None
    status: str               # exact | sign_flipped | mismatch | unmatched
    notes: tuple[str, ...]


@dataclass(frozen=True)
class TranscriptionLedger:
    label: str
    entries: tuple[LedgerEntry, ...]

    @property
    def counts(self) -> dict[str, int]:
        c = {"total": len(self.entries), "exact": 0, "sign_flipped": 0,
             "mismatch": 0, "unmatched": 0}
        for e in self.entries:
            c[e.status] += 1
        return c

    @property
    def flagged(self) -> tuple[LedgerEntry, ...]:
        return tuple(e for e in self.entries if e.status != "exact")


def _printed_atoms(term: TranscribedTerm):
    _, _, num_f = _canon_numerator(term.num)
    atoms = []
    for entry, bracket_sign in ((term.first, 1), (term.second, -1)):
        var, const, f = _canon_numerator(entry.num)
        rad_key = tuple(sorted(_canon_squared(r) for r in entry.radicand))
        g = term.sign * num_f * f * bracket_sign
        atoms.append((g, var, const, rad_key))
    return atoms


def _compare(term: TranscribedTerm, eng: _EngineTerm) -> tuple[str, tuple[str, ...]]:
    notes = []
    num_var, num_const, _ = _canon_numerator(term.num)
    if (num_var, num_const) != eng.num:
        notes.append(
            f"numerator ({num_const:g}-{num_var}) should be ({eng.num[1]:g}-{eng.num[0]})"
        )

    printed = _printed_atoms(term)
    as_set = frozenset((g, c, r) for g, _v, c, r in printed)
    # Bracket entries must vary along the stick's own axis, which is the one
    # radicand letter the denominator does not fix.
    stick_axis = set(a for a, _c in next(iter(eng.atoms))[2]) - set(
        a for a, _c in eng.den_key
    )
    for _g, v, _c, _r in printed:
        if stick_axis and v not in stick_axis:
            notes.append(f"bracket entry varies along {v}, stick runs along "
                         f"{''.join(sorted(stick_axis))}")

    if not notes and as_set == eng.atoms:
        return "exact", ()
    flipped = frozenset((-g, c, r) for g, c, r in as_set)
    if not notes and flipped == eng.atoms:
        return "sign_flipped", ("printed with the opposite overall sign",)

    # Itemize: pair printed and engine atoms by endpoint, then by order.
    eng_atoms = sorted(eng.atoms, key=lambda a: a[1])
    for g, v, c, r in printed:
        match = [a for a in eng_atoms if a[1] == c]
        if not match:
            ends = ", ".join(f"{a[1]:g}" for a in eng_atoms)
            notes.append(f"bracket endpoint {c:g} not an endpoint of the stick "
                         f"(expected one of: {ends})")
            continue
        g_e, c_e, r_e = match[0]
        if r != r_e:
            notes.append(f"radicand at endpoint {c:g} disagrees: printed "
                         f"{_fmt_rad(r)}, engine {_fmt_rad(r_e)}")
        if g != g_e:
            notes.append(f"bracket entry at endpoint {c:g} has flipped sign")
    return "mismatch", tuple(notes)


def _fmt_rad(rad_key) -> str:
    return "+".join(f"({c:g}-{v})^2" for v, c in rad_key)


def discrepancy_ledger(label: str, tables=None) -> TranscriptionLedger:
    """Match every printed term to its engine stick and report disagreements.

    Terms pair up by denominator (the stick's fixed transverse coordinates);
    the ledger then checks signs, endpoints and radicands.  The engine is
    authoritative: a flagged term documents a misprint, it never changes
    what the engine computes.
    """
    tables = tables if tables is not None else TERM_TABLES[label]
    engine = _engine_terms(CANONICAL[label]())
    entries = []
    seen = set()
    for comp in ("Bx", "By", "Bz"):
        for term in tables[comp]:
            den_key = tuple(sorted(_canon_squared(d) for d in term.den))
            eng = engine.get((comp, den_key))
            if eng is None:
                entries.append(LedgerEntry(comp, term.index, None, "unmatched",
                                           (f"no stick with fixed coordinates "
                                            f"{_fmt_rad(den_key)}",)))
                continue
            seen.add((comp, den_key))
            status, notes = _compare(term, eng)
            entries.append(LedgerEntry(comp, term.index, eng.segment_index, status, notes))
    for key, eng in sorted(engine.items()):
        if key not in seen:
            entries.append(LedgerEntry(eng.component, 0, eng.segment_index, "unmatched",
                                       ("engine contribution has no printed term",)))
    return TranscriptionLedger(label=label, entries=tuple(entries))
