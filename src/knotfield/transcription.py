"""Verbatim transcriptions of the published closed-form field components.

The built-in trefoil and figure-eight knots come with printed closed-form
expressions for (Bx, By, Bz): one term per stick per component, each of the
shape

    sign * N / ((A)^2 + (B)^2) * [ E1/sqrt(R1) - E2/sqrt(R2) ].

They are transcribed here exactly as printed, including the misprints
(dropped signs, a wrong endpoint constant, one bad radicand), because the
printed formulas are themselves an artifact worth testing against.  Every
lattice knot has a table of that same shape, derived from its sticks by
``_derived_terms``; it is the engine's side, and one evaluator reads both
kinds of table.  ``discrepancy_ledger`` matches every printed term to the
derived term of the stick it describes (terms pair up by the denominator,
which names the stick's two fixed transverse coordinates) and enumerates
exactly where the two disagree.  Corrections live only in that ledger,
never in the tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .biot_savart import OnConductorError, _stick_field
from .geometry import CANONICAL, LatticeKnot

_AXES = "xyz"
_COMPONENTS = ("Bx", "By", "Bz")

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
    index: int                # 1-based: position in the printed component, or stick
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


def _derived_terms(knot: LatticeKnot) -> dict[str, tuple[TranscribedTerm, ...]]:
    """The knot's own term table, shaped like ``TERM_TABLES[label]``.

    A stick s -> e along axis w, with fixed coordinates c_b and c_c, gives
    one term for each transverse component i: sign (c_v - v) / ((c_b - b)^2
    + (c_c - c)^2) * [(e - w)/sqrt(R_e) - (s - w)/sqrt(R_s)], where v is the
    third axis, R_p is the squared distance to the stick's endpoint p, and
    the sign is -1 when (w - i) mod 3 = 1, else +1.  A derived term's
    ``index`` is its stick's 1-based index.
    """
    out, v = {comp: [] for comp in _COMPONENTS}, knot.vertices
    for j, (w, *across) in enumerate(knot.sticks.roles.T.tolist()):
        start, end = v[j], v[(j + 1) % len(v)]
        fixed = {ax: (float(start[ax]), -1, _AXES[ax]) for ax in across}   # (c_a - a)
        first, second = (BracketEntry((float(p[w]), -1, _AXES[w]),
                                      tuple((float(c), -1, a) for c, a in zip(p, _AXES)))
                         for p in (end, start))
        for i in fixed:
            out[_COMPONENTS[i]].append(TranscribedTerm(
                _COMPONENTS[i], j + 1, -1 if (w - i) % 3 == 1 else 1,
                fixed[3 - i - w], tuple(fixed.values()), first, second))
    return {comp: tuple(terms) for comp, terms in out.items()}


def _lin_values(form: LinForm, pts: np.ndarray) -> np.ndarray:
    c, s, var = form
    return c + s * pts[:, _AXES.index(var)]


def _printed_terms(tables, pts: np.ndarray):
    """Every term's values at the (M, 3) points, component -> (M, T), and the
    (M, T) mask, over all terms in table order, of where a point falls below
    the singularity floor of a term's denominator or a radicand.  Reads
    printed and derived tables alike."""
    vals, near = {}, []
    with np.errstate(divide="ignore", invalid="ignore"):
        for comp, terms in tables.items():
            vals[comp] = np.empty((len(pts), len(terms)))
            for t_i, t in enumerate(terms):
                den = _lin_values(t.den[0], pts) ** 2 + _lin_values(t.den[1], pts) ** 2
                rads = [sum(_lin_values(f, pts) ** 2 for f in entry.radicand)
                        for entry in (t.first, t.second)]
                near.append((den < SINGULARITY_FLOOR) | (rads[0] < SINGULARITY_FLOOR)
                            | (rads[1] < SINGULARITY_FLOOR))
                bracket = np.zeros(len(pts))
                for entry, es, rad in zip((t.first, t.second), (1.0, -1.0), rads):
                    bracket += es * _lin_values(entry.num, pts) / np.sqrt(rad)
                vals[comp][:, t_i] = t.sign * _lin_values(t.num, pts) / den * bracket
    return vals, np.array(near).T


def eval_transcribed(label: str, points) -> np.ndarray:
    """Literal evaluation of the printed component formulas (k = 1), at a
    (3,) point or at (M, 3) points.

    Faithful to the page: any misprint in the source expressions is
    reproduced, not repaired.  Each point's terms are summed on their own,
    so a point's value has the bits of a one-point call.  When a point lies
    within the singularity floor of a term, the first such point is refused
    with OnConductorError naming the term's 1-based stick and the point's
    distance from the circuit; a term is singular on its stick's whole axis
    line, so that distance can be large.
    """
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 3)
    tables = TERM_TABLES[label]
    vals, near = _printed_terms(tables, flat)
    if near.any():
        p_i, t_i = np.unravel_index(np.argmax(near), near.shape)
        term = [t for terms in tables.values() for t in terms][t_i]
        knot = CANONICAL[label]()
        stick = _by_stick(_derived_terms(knot))[term.component, _den_key(term)].index
        dist = _stick_field(knot.sticks, flat[p_i:p_i + 1])[1][0]
        raise OnConductorError(flat[p_i], dist, segment_index=stick)
    return np.stack([vals[comp].sum(axis=1) for comp in _COMPONENTS], axis=1).reshape(pts.shape)


# --- structural matching against the derived table ---------------------------

def _canon_squared(form: LinForm) -> tuple[str, float]:
    """(c + s*v)^2 is insensitive to overall sign: canonicalize to (v, c')."""
    c, s, var = form
    return (var, (c if s == -1 else -c) + 0.0)


def _canon_numerator(form: LinForm) -> tuple[str, float, int]:
    """Rewrite c + s*v as f*(c' - v); returns (v, c', f)."""
    c, s, var = form
    return (var, c + 0.0, 1) if s == -1 else (var, -c + 0.0, -1)


def _den_key(term: TranscribedTerm) -> tuple:
    """The stick's fixed transverse coordinates, as the denominator names them."""
    return tuple(sorted(_canon_squared(d) for d in term.den))


def _by_stick(tables) -> dict[tuple, TranscribedTerm]:
    """Each term by (component, denominator key)."""
    return {(t.component, _den_key(t)): t for terms in tables.values() for t in terms}


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


def _compare(term: TranscribedTerm, want: TranscribedTerm) -> tuple[str, tuple[str, ...]]:
    """Status and notes of a printed term against the derived term of its stick."""
    notes = []
    (v, c, _), (want_v, want_c, _) = _canon_numerator(term.num), _canon_numerator(want.num)
    if (v, c) != (want_v, want_c):
        notes.append(f"numerator ({c:g}-{v}) should be ({want_c:g}-{want_v})")

    printed = _printed_atoms(term)
    as_set = frozenset((g, c, r) for g, _v, c, r in printed)
    wanted = frozenset((g, c, r) for g, _v, c, r in _printed_atoms(want))
    # Bracket entries must vary along the stick's own axis.
    axis = want.first.num[2]
    notes += [f"bracket entry varies along {v}, stick runs along {axis}"
              for _g, v, _c, _r in printed if v != axis]

    if not notes and as_set == wanted:
        return "exact", ()
    if not notes and frozenset((-g, c, r) for g, c, r in as_set) == wanted:
        return "sign_flipped", ("printed with the opposite overall sign",)

    # Itemize: pair printed and derived atoms by endpoint.
    by_end = {c: (g, r) for g, c, r in wanted}
    for g, v, c, r in printed:
        if c not in by_end:
            ends = ", ".join(f"{e:g}" for e in sorted(by_end))
            notes.append(f"bracket endpoint {c:g} not an endpoint of the stick "
                         f"(expected one of: {ends})")
            continue
        g_e, r_e = by_end[c]
        if r != r_e:
            notes.append(f"radicand at endpoint {c:g} disagrees: printed "
                         f"{_fmt_rad(r)}, engine {_fmt_rad(r_e)}")
        if g != g_e:
            notes.append(f"bracket entry at endpoint {c:g} has flipped sign")
    return "mismatch", tuple(notes)


def _fmt_rad(rad_key) -> str:
    return "+".join(f"({c:g}-{v})^2" for v, c in rad_key)


def discrepancy_ledger(label: str, tables=None) -> TranscriptionLedger:
    """Match every printed term to its stick's derived term and report
    disagreements.

    Terms pair up by denominator (the stick's fixed transverse coordinates),
    so two printed terms may match one stick; the ledger then checks signs,
    endpoints and radicands.  The derived table is authoritative: a flagged
    term documents a misprint, it never changes what the engine computes.
    """
    tables = tables if tables is not None else TERM_TABLES[label]
    derived = _by_stick(_derived_terms(CANONICAL[label]()))
    entries = []
    seen = set()
    for comp in _COMPONENTS:
        for term in tables[comp]:
            key = (comp, _den_key(term))
            want = derived.get(key)
            if want is None:
                entries.append(LedgerEntry(comp, term.index, None, "unmatched",
                                           (f"no stick with fixed coordinates "
                                            f"{_fmt_rad(key[1])}",)))
                continue
            seen.add(key)
            status, notes = _compare(term, want)
            entries.append(LedgerEntry(comp, term.index, want.index, status, notes))
    for key in sorted(derived.keys() - seen):
        entries.append(LedgerEntry(key[0], 0, derived[key].index, "unmatched",
                                   ("engine contribution has no printed term",)))
    return TranscriptionLedger(label=label, entries=tuple(entries))
