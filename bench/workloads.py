"""Workloads of the orbimorse benchmark: input generation from a seed, one
solve per input through the public API, and the known answer each solve is
checked against.

Every expected answer here is worked out by hand or from face counts, never
by calling the code under test, so a wrong homology group, count or Euler
number makes the solve count as failed.  Solves call the program through
module attributes (``morse_datum.validate``, not a bound name) so that the
traced run, which replaces those attributes, sees every call.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from orbimorse import (
    chain_complex,
    cli,
    flow_numerics,
    morse_datum,
    simplicial_oracle,
    stabilization,
)

@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_inputs(rng)`` builds the inputs of one run; ``solve(input)``
    takes one input to checked homology and returns whether every answer
    matched the known result.  ``traced_solves`` is how many inputs the
    traced run takes, fixed so that its counts repeat exactly per seed.
    """

    name: str
    make_inputs: Callable[[random.Random], list]
    solve: Callable[[object], bool]
    traced_solves: int


def groups(homology_groups):
    """Program homology as ((betti, torsion), ...) by degree."""
    return tuple((g.betti, tuple(g.torsion))
                 for g in sorted(homology_groups, key=lambda g: g.degree))


def invariant_factors(orders):
    """Invariant-factor form (each dividing the next, all > 1) of a direct
    sum of cyclic groups Z/n for n in ``orders``."""
    powers = {}
    for n in orders:
        p = 2
        while n > 1:
            k = 1
            while n % p == 0:
                n //= p
                k *= p
            if k > 1:
                powers.setdefault(p, []).append(k)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for p_powers in powers.values():
        for i, q in enumerate(sorted(p_powers, reverse=True)):
            factors[length - 1 - i] *= q
    return tuple(factors)


# --------------------------------------------------------------------------
# flow-torus and flow-epsilon: surface -> datum -> JSON -> homology -> compare

def _band(rng, lo, hi, bits=8):
    """2**bits parameters in [lo, hi], one in each of 2**bits equal strata,
    at a place within its stratum drawn from ``rng``.  The strata come in
    bit-reversed (van der Corput) order, so the first n parameters cover
    the band evenly, and in the same way for every seed: runs differ in
    the exact parameters but not in how much of the band's slow and fast
    ends they take."""
    count = 2 ** bits
    return [lo + (hi - lo) * (int(f"{i:0{bits}b}"[::-1], 2) + rng.random())
            / count for i in range(count)]


def _flow_solve(spec, stabilize, space):
    """The ``orbimorse flow`` pipeline followed by ``homology`` and
    ``compare`` on its output, all in memory.  Returns the datum read back
    from JSON and the three homology listings."""
    surface = flow_numerics.surface_from_spec(*spec)
    orbits = flow_numerics.find_critical_orbits(surface)
    if any(not o.stable for o in orbits):
        if not stabilize:
            return None
        surface, orbits = flow_numerics.stabilize_all(surface, orbits)
    datum = flow_numerics.quotient_to_datum(surface, orbits)
    datum = cli.datum_from_json(cli.datum_to_json(datum))
    co = chain_complex.homology(morse_datum.coinvariant_complex(datum))
    inv = chain_complex.homology(morse_datum.invariant_complex(datum))
    underlying = simplicial_oracle.simplicial_homology(
        simplicial_oracle.builtin_space(space))
    if not simplicial_oracle.compare_homology(co, underlying).match:
        return None
    return datum, groups(co), groups(inv)


def _shape(datum):
    return Counter((p.index, p.stab_order) for p in datum.points)


_TORUS_HOMOLOGY = ((1, ()), (2, ()), (1, ()))


def _torus_inputs(rng):
    # At tilt 0.02 trajectories run out of the step budget; on [0.2, 0.3]
    # the four critical points are far from degenerate and every count
    # cancels.
    return [("torus", {"tilt": t}, ()) for t in _band(rng, 0.2, 0.3)]


def _torus_solve(spec):
    out = _flow_solve(spec, stabilize=False, space="torus")
    if out is None:
        return False
    datum, co, inv = out
    return (_shape(datum) == Counter({(2, 1): 1, (1, 1): 2, (0, 1): 1})
            and all(f.count == 0 for f in datum.flows)
            and co == _TORUS_HOMOLOGY and inv == _TORUS_HOMOLOGY)


def _epsilon_inputs(rng):
    # Below epsilon = 0.5 the poles become unstable index-2 points, which
    # raise UnsupportedProfile; on [0.7, 1.0] both poles are reversed
    # saddles, stabilization applies, and the count pattern is fixed.
    return [("epsilon_sphere", {"epsilon": e}, ("rotation_pi_z",))
            for e in _band(rng, 0.7, 1.0)]


def _epsilon_pattern_ok(datum):
    """Counts up to the orientation sign rule: no max -> saddle flows
    survive; each saddle meets the free minimum once and exactly one of the
    two cone-point minima once, and the two saddles meet different cone
    points.  The nonzero counts form a tree, so every sign choice is
    reachable by reorienting generators and only magnitudes are fixed."""
    counts = {(f.source, f.target): abs(f.count) for f in datum.flows}
    saddles = [p for p in datum.points if p.index == 1]
    maxima = [p for p in datum.points if p.index == 2]
    minima = [p for p in datum.points if p.index == 0 and p.stab_order == 1]
    cones = [p for p in datum.points if p.index == 0 and p.stab_order == 2]
    if len(saddles) != 2 or len(minima) != 1 or len(cones) != 2:
        return False
    if any(counts.get((m.id, s.id), 0) for m in maxima for s in saddles):
        return False
    hit = []
    for s in saddles:
        if counts.get((s.id, minima[0].id), 0) != 1:
            return False
        reached = [c.id for c in cones if counts.get((s.id, c.id), 0)]
        if len(reached) != 1 or counts[(s.id, reached[0])] != 1:
            return False
        hit.append(reached[0])
    return len(set(hit)) == 2


def _epsilon_solve(spec):
    out = _flow_solve(spec, stabilize=True, space="s2")
    if out is None:
        return False
    datum, co, inv = out
    return (_shape(datum) == Counter({(2, 1): 1, (1, 1): 2, (0, 1): 1, (0, 2): 2})
            and _epsilon_pattern_ok(datum)
            and co == ((1, ()), (0, ()), (1, ()))
            and inv == ((1, (2,)), (0, ()), (1, ())))


# --------------------------------------------------------------------------
# exact-suspension: datums with one point per simplex of a double suspension

@dataclass(frozen=True)
class _SuspensionCase:
    text: str
    source: object            # SimplicialComplex of the relabelled facets
    coinvariant: tuple        # shifted homology of the space
    invariant: tuple          # closed form from face counts


def _suspend_twice(facets):
    facets = [tuple(str(v) for v in f) for f in facets]
    for level in range(2):
        facets = [tuple(f) + (apex,) for apex in (f"N{level}", f"S{level}")
                  for f in facets]
    return facets


def _faces(facets):
    found = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            found.update(combinations(f, k))
    return sorted(found)


def _suspension_case(rng, base_facets, shifted, torsion_of_two):
    """Datum of Σ²(space): one point per simplex, stabilizer order
    2^(top - index), counts the simplicial boundary signs after a random
    vertex relabelling and random orientation flips.

    Every invariant entry is twice the coinvariant one, so the invariant
    complex is the boundary times 2: with r_k the rank of the boundary out
    of degree k (from face counts and Betti numbers), degree k carries
    (Z/2)^(r_{k+1} - t_k) + (Z/4)^t_k, where t_k counts the Z/2 summands of
    the space's own H_k.
    """
    facets = _suspend_twice(base_facets)
    vertices = sorted({v for f in facets for v in f})
    names = [f"v{i}" for i in range(len(vertices))]
    rng.shuffle(names)
    relabel = dict(zip(vertices, names))
    facets = [tuple(sorted(relabel[v] for v in f)) for f in facets]
    faces = _faces(facets)
    top = max(len(s) for s in faces) - 1
    flip = {s: rng.choice((1, -1)) for s in faces}
    points = [{"id": "|".join(s), "index": len(s) - 1,
               "stab": 2 ** (top - len(s) + 1)} for s in faces]
    flows = []
    for s in faces:
        if len(s) > 1:
            for drop in range(len(s)):
                t = s[:drop] + s[drop + 1:]
                flows.append({"from": "|".join(s), "to": "|".join(t),
                              "count": (-1) ** drop * flip[s] * flip[t]})
    rng.shuffle(points)
    rng.shuffle(flows)
    text = json.dumps({"schema_version": "1", "ambient_dimension": top,
                       "points": points, "flows": flows})

    face_counts = Counter(len(s) - 1 for s in faces)
    rank_k = 0          # r_0: the boundary out of degree 0 is zero
    invariant = []
    for k in range(top + 1):
        betti = shifted[k][0]
        rank_next = face_counts[k] - rank_k - betti
        fours = torsion_of_two[k]
        invariant.append((betti, (2,) * (rank_next - fours) + (4,) * fours))
        rank_k = rank_next
    return _SuspensionCase(
        text=text,
        source=simplicial_oracle.SimplicialComplex.from_facets(facets),
        coinvariant=tuple(shifted), invariant=tuple(invariant))


# 7-vertex torus on K7 and 6-vertex projective plane, written out here so the
# expected answers do not rest on the oracle's own constructions.
_TORUS_FACETS = [f for i in range(7) for f in
                 ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))]
_RP2_FACETS = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
               (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
# Reduced homology shifted up two degrees, plus H_0 = Z.
_SIGMA2_TORUS = ((1, ()), (0, ()), (0, ()), (2, ()), (1, ()))
_SIGMA2_RP2 = ((1, ()), (0, ()), (0, ()), (0, (2,)), (0, ()))


def _suspension_inputs(rng, pairs=4):
    return [(_suspension_case(rng, _TORUS_FACETS, _SIGMA2_TORUS, (0,) * 5),
             _suspension_case(rng, _RP2_FACETS, _SIGMA2_RP2, (0, 0, 0, 1, 0)))
            for _ in range(pairs)]


def _suspension_solve(pair):
    """One solve takes the Σ²(torus) and the Σ²(RP²) datum of a pair, so
    every solve does the same work and the median is not bimodal."""
    ok = True
    for case in pair:
        datum = cli.datum_from_json(case.text)
        if not morse_datum.validate(datum).ok:
            return False
        co = chain_complex.homology(morse_datum.coinvariant_complex(datum))
        inv = chain_complex.homology(morse_datum.invariant_complex(datum))
        space = simplicial_oracle.simplicial_homology(case.source)
        ok = (ok and simplicial_oracle.compare_homology(co, space).match
              and groups(co) == case.coinvariant
              and groups(space) == case.coinvariant
              and groups(inv) == case.invariant)
    return ok


# --------------------------------------------------------------------------
# datum-fuzz: small direct sums with planted homology, mixed by unimodular
# changes of basis

@dataclass(frozen=True)
class _FuzzCase:
    text: str
    coinvariant: tuple
    invariant: tuple
    euler: Fraction
    unstable_id: str
    sphere: tuple             # builtin_sphere_datum name and parameters


_TOP = 3


def _euler(records):
    return sum((Fraction((-1) ** (index % 2), stab) for index, stab in records),
               Fraction(0))


def _fuzz_case(rng):
    """A direct sum of free points (Z in their degree), cancelling pairs
    (count ±1: nothing in the coinvariant complex, Z/m in the invariant one
    when the stabilizer ratio is m) and torsion pairs (count c with |c| > 1:
    Z/|c| and Z/|c m|).  Basis changes mix points of equal index and
    stabilizer order only, which keeps the homology and the divisibility
    rule."""
    points = []            # (index, stab) by position
    entries = {}           # (row point, col point) -> count, col one degree up
    co_tors = {k: [] for k in range(_TOP + 1)}
    in_tors = {k: [] for k in range(_TOP + 1)}
    betti = [0] * (_TOP + 1)

    # the point that a copy of the datum marks unstable
    index = rng.choice((1, 2, 3))
    stab = rng.choice((2, 3)) if index >= 2 else 2
    unstable = len(points)
    points.append((index, stab))
    betti[index] += 1
    if stab == 3:
        sphere = ("cyclic_rotation_circle", (3,))
    else:
        sphere = rng.choice([("two_points_swap", ()),
                             ("cyclic_rotation_circle", (2,)),
                             ("antipodal_sphere2", ())][:index])

    for _ in range(rng.randint(3, 9)):
        if rng.random() < 0.3:
            k = rng.randint(0, _TOP)
            points.append((k, rng.choice((1, 2, 3, 4))))
            betti[k] += 1
            continue
        k = rng.randint(0, _TOP - 1)
        s_upper = rng.choice((1, 2, 3))
        ratio = rng.choice((1, 1, 2, 3))
        count = rng.choice((1, -1, 1, -1, 2, -2, 3, -3))
        upper, lower = len(points), len(points) + 1
        points += [(k + 1, s_upper), (k, s_upper * ratio)]
        entries[(lower, upper)] = count
        if abs(count) > 1:
            co_tors[k].append(abs(count))
        if abs(count * ratio) > 1:
            in_tors[k].append(abs(count * ratio))

    blocks = {}
    for i, shape in enumerate(points):
        blocks.setdefault(shape, []).append(i)
    for members in blocks.values():
        for _ in range(2 * len(members) if len(members) > 1 else 0):
            i, j = rng.sample(members, 2)
            a = rng.choice((1, -1, 2, -2))
            # new basis vector e_j + a e_i: column j += a column i in the
            # boundary out of this degree, row i -= a row j in the one into it
            for (r, c), v in list(entries.items()):
                if c == i:
                    entries[(r, j)] = entries.get((r, j), 0) + a * v
            for (r, c), v in list(entries.items()):
                if r == j:
                    entries[(i, c)] = entries.get((i, c), 0) - a * v

    ids = [f"x{n}" for n in rng.sample(range(100), len(points))]
    records = [{"id": ids[i], "index": k, "stab": s}
               for i, (k, s) in enumerate(points)]
    flows = [{"from": ids[c], "to": ids[r], "count": v}
             for (r, c), v in entries.items() if v]
    rng.shuffle(records)
    rng.shuffle(flows)
    text = json.dumps({"schema_version": "1", "ambient_dimension": _TOP,
                       "points": records, "flows": flows})
    top = max(k for k, _ in points)
    return _FuzzCase(
        text=text,
        coinvariant=tuple((betti[k], invariant_factors(co_tors[k]))
                          for k in range(top + 1)),
        invariant=tuple((betti[k], invariant_factors(in_tors[k]))
                        for k in range(top + 1)),
        euler=_euler(points),
        unstable_id=ids[unstable],
        sphere=sphere)


def _fuzz_inputs(rng, count=1000):
    return [_fuzz_case(rng) for _ in range(count)]


def _fuzz_solve(case):
    datum = cli.datum_from_json(case.text)
    if not morse_datum.validate(datum).ok:
        return False
    if morse_datum.orbifold_euler(datum) != case.euler:
        return False
    co = chain_complex.homology(morse_datum.coinvariant_complex(datum))
    inv = chain_complex.homology(morse_datum.invariant_complex(datum))
    if groups(co) != case.coinvariant or groups(inv) != case.invariant:
        return False
    if not morse_datum.ratio_identity_check(datum).ok:
        return False

    unstable = morse_datum.MorseDatum(
        points=[dataclasses.replace(p, stable=False)
                if p.id == case.unstable_id else p for p in datum.points],
        flows=datum.flows, ambient_dimension=datum.ambient_dimension)
    sphere = stabilization.builtin_sphere_datum(case.sphere[0], *case.sphere[1])
    local = stabilization.local_data_for(unstable, case.unstable_id, sphere)
    result = stabilization.stabilize_point(unstable, local, sphere).datum
    if len(result.points) != len(datum.points) + len(sphere.orbits):
        return False
    if _euler((p.index, p.stab_order) for p in result.points) != case.euler:
        return False

    return cli.datum_from_json(cli.datum_to_json(datum)) == datum


WORKLOADS = {w.name: w for w in (
    Workload("flow-torus", _torus_inputs, _torus_solve, traced_solves=2),
    Workload("flow-epsilon", _epsilon_inputs, _epsilon_solve, traced_solves=2),
    Workload("exact-suspension", _suspension_inputs, _suspension_solve,
             traced_solves=1),
    Workload("datum-fuzz", _fuzz_inputs, _fuzz_solve, traced_solves=300),
)}
