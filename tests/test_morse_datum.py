import random
from fractions import Fraction

import pytest

from orbimorse import morse_datum
from orbimorse.chain_complex import FreeChainComplex, homology
from orbimorse.errors import (
    BoundarySquaredNonzero,
    UnknownFlowCount,
    UnstablePoint,
    ValidationFailure,
)
from orbimorse.morse_datum import (
    CriticalPointRecord,
    FlowCount,
    MorseDatum,
    coinvariant_complex,
    invariant_complex,
    orbifold_euler,
    ratio_identity_check,
    underlying_euler,
    validate,
)
from orbimorse.simplicial_oracle import projective_plane, suspension
from conftest import make_bean, make_teardrop


def rules_of(report):
    return {v.rule for v in report.violations}


class TestValidate:
    def test_teardrop_valid(self, teardrop):
        assert validate(teardrop(2, 3)).ok

    def test_divisibility_violation(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 3),
                    CriticalPointRecord("b", 0, 2)),
            flows=(FlowCount("a", "b", 1),))
        assert "stabilizer-divisibility" in rules_of(validate(datum))

    def test_zero_count_escapes_divisibility(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 3),
                    CriticalPointRecord("b", 0, 2)),
            flows=(FlowCount("a", "b", 0),))
        assert validate(datum).ok

    def test_index_gap_violation(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 2, 1),
                    CriticalPointRecord("b", 0, 1)),
            flows=(FlowCount("a", "b", 1),))
        assert "index-gap" in rules_of(validate(datum))

    def test_unknown_endpoint(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 1),),
            flows=(FlowCount("a", "ghost", 1),))
        assert "unknown-endpoint" in rules_of(validate(datum))

    def test_duplicate_label_and_flow(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 1),
                    CriticalPointRecord("a", 0, 1)),
            flows=(FlowCount("a", "a", 1),))
        assert "duplicate-label" in rules_of(validate(datum))
        datum2 = MorseDatum(
            points=(CriticalPointRecord("a", 1, 1),
                    CriticalPointRecord("b", 0, 1)),
            flows=(FlowCount("a", "b", 1), FlowCount("a", "b", 1)))
        assert "duplicate-flow" in rules_of(validate(datum2))

    def test_placeholders_are_tolerated(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 6),
                    CriticalPointRecord("b", 0, 1)),
            flows=(FlowCount("a", "b", None),))
        # unknown counts carry no divisibility obligation
        assert validate(datum).ok

    @pytest.mark.parametrize("make", [lambda: make_teardrop(2, 3), make_bean,
                                      lambda: double_suspension_datum()],
                             ids=["teardrop", "bean", "double-suspension-rp2"])
    def test_rules_run_once_per_datum(self, monkeypatch, make):
        # both complexes and the caller's own check share one report
        real = morse_datum._violations
        calls = []

        def counted(datum):
            calls.append(datum)
            return real(datum)

        monkeypatch.setattr(morse_datum, "_violations", counted)
        first, second = make(), make()
        for datum in (first, second):
            coinvariant_complex(datum)
            invariant_complex(datum)
            report = validate(datum)
            assert report.ok and validate(datum) is report
        assert [id(d) for d in calls] == [id(first), id(second)]

    def test_stored_report_lists_the_violations(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 3),
                    CriticalPointRecord("b", 0, 2)),
            flows=(FlowCount("a", "b", 1),))
        first = validate(datum)
        assert validate(datum) is first
        assert rules_of(first) == {"stabilizer-divisibility"}
        with pytest.raises(ValidationFailure):
            coinvariant_complex(datum)

    def test_zero_order_is_reported_not_divided_by(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 0),
                    CriticalPointRecord("b", 0, 2)),
            flows=(FlowCount("a", "b", 1),))
        assert [v.rule for v in validate(datum).violations] == [
            "stab-order-positive"]

    def test_bad_orders_and_indices(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", -1, 0),
                    CriticalPointRecord("b", 9, 1)),
            flows=(), ambient_dimension=2)
        rules = rules_of(validate(datum))
        assert {"stab-order-positive", "negative-index",
                "index-exceeds-dimension"} <= rules


class TestCoinvariantComplex:
    def test_teardrop_homology(self, teardrop):
        groups = homology(coinvariant_complex(teardrop(2, 3)))
        assert [(g.betti, g.torsion) for g in groups] == [
            (1, ()), (0, ()), (1, ())]

    def test_bean_homology(self, bean):
        groups = homology(coinvariant_complex(bean))
        assert [(g.betti, g.torsion) for g in groups] == [
            (1, ()), (0, ()), (1, ())]

    def test_trivial_stabilizers_match_classical_boundary(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("m", 2, 1),
                    CriticalPointRecord("s", 1, 1),
                    CriticalPointRecord("b", 0, 1)),
            flows=(FlowCount("m", "s", 0), FlowCount("s", "b", 0)))
        co = coinvariant_complex(datum)
        inv = invariant_complex(datum)
        assert co.boundaries == inv.boundaries

    def test_unknown_flow_rejected(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 1),
                    CriticalPointRecord("b", 0, 1)),
            flows=(FlowCount("a", "b", None),))
        with pytest.raises(UnknownFlowCount):
            coinvariant_complex(datum)

    def test_unstable_point_rejected(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 2, stable=False),
                    CriticalPointRecord("b", 0, 2)),
            flows=(FlowCount("a", "b", 2),))
        with pytest.raises(UnstablePoint):
            coinvariant_complex(datum)

    def test_invalid_datum_rejected(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 2, 1),
                    CriticalPointRecord("b", 0, 1)),
            flows=(FlowCount("a", "b", 1),))
        with pytest.raises(ValidationFailure):
            coinvariant_complex(datum)

    def test_inconsistent_counts_fail_boundary_squared(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("t", 2, 1),
                    CriticalPointRecord("m", 1, 1),
                    CriticalPointRecord("b", 0, 1)),
            flows=(FlowCount("t", "m", 1), FlowCount("m", "b", 1)))
        with pytest.raises(BoundarySquaredNonzero):
            coinvariant_complex(datum)


class TestInvariantComplex:
    def test_teardrop_entries_exact(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("q", 0, 4),
                    CriticalPointRecord("p", 0, 3),
                    CriticalPointRecord("p'", 1, 1),
                    CriticalPointRecord("p''", 2, 1)),
            flows=(FlowCount("p'", "p", 1), FlowCount("p'", "q", -1),
                   FlowCount("p''", "p'", 0)))
        complex_ = invariant_complex(datum)
        assert complex_.boundary(1).to_rows() == [[-4], [3]]

    def test_teardrop_torsion_is_gcd(self, teardrop):
        import math

        for m, n in [(2, 3), (3, 4), (5, 5), (4, 6), (6, 9)]:
            groups = homology(invariant_complex(teardrop(m, n)))
            g = math.gcd(m, n)
            expected = (g,) if g > 1 else ()
            assert (groups[0].betti, groups[0].torsion) == (1, expected)

    def test_bean_column(self, bean):
        complex_ = invariant_complex(bean)
        assert complex_.boundary(1).to_rows() == [[2], [-2]]

    def test_non_integral_coefficient(self):
        # 3 does not divide 2, so the weighted coefficient 2 / 3 is not an
        # integer; validate's divisibility rule refuses the datum before
        # any boundary is built
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 3),
                    CriticalPointRecord("b", 0, 2)),
            flows=(FlowCount("a", "b", 1),))
        with pytest.raises(ValidationFailure,
                           match=r"\[stabilizer-divisibility\]") as caught:
            invariant_complex(datum)
        assert [v.rule for v in caught.value.report.violations] == [
            "stabilizer-divisibility"]


class TestEulerNumbers:
    def test_teardrop(self, teardrop):
        assert orbifold_euler(teardrop(2, 3)) == Fraction(5, 6)
        assert underlying_euler(teardrop(2, 3)) == 2

    def test_exactness_of_large_orders(self, teardrop):
        assert orbifold_euler(teardrop(97, 89)) == (
            Fraction(1, 97) + Fraction(1, 89))

    def test_manifold_sphere(self):
        datum = MorseDatum(
            points=(CriticalPointRecord("top", 2, 1),
                    CriticalPointRecord("bot", 0, 1)), flows=())
        assert orbifold_euler(datum) == 2
        assert underlying_euler(datum) == 2

    def test_bean(self, bean):
        assert orbifold_euler(bean) == 1
        assert underlying_euler(bean) == 2

    def test_equals_the_sum_over_points(self):
        rng = random.Random(9091)
        for _ in range(200):
            points = [CriticalPointRecord(f"p{i}", rng.randint(0, 4),
                                          rng.choice((1, 2, 3, 4, 6, 12, 97)))
                      for i in range(rng.randint(0, 30))]
            datum = MorseDatum(points, ())
            total = orbifold_euler(datum)
            assert type(total) is Fraction
            assert total == sum(
                (Fraction((-1) ** (p.index % 2), p.stab_order)
                 for p in points), Fraction(0))

    def test_underlying_equals_complex_euler(self, teardrop, bean):
        from orbimorse.chain_complex import euler_characteristic

        for datum in (teardrop(2, 3), teardrop(4, 6), bean):
            assert underlying_euler(datum) == euler_characteristic(
                coinvariant_complex(datum))


def random_valid_layered_datum(rng, unknown_chance=0.0):
    """Datum on a random layered point set where stabilizer orders are
    built divisor-first so every flow satisfies divisibility."""
    layers = rng.randint(2, 4)
    points = []
    ids_by_layer = []
    for k in range(layers):
        layer_ids = []
        for i in range(rng.randint(1, 3)):
            pid = f"p{k}_{i}"
            layer_ids.append(pid)
            points.append(CriticalPointRecord(pid, k, 1))
        ids_by_layer.append(layer_ids)
    # assign stabilizer orders: each point's order divides the order of
    # every lower endpoint of its nonzero flows; build top-down
    orders = {}
    flows = []
    for k in range(layers - 1, -1, -1):
        for pid in ids_by_layer[k]:
            orders[pid] = rng.choice([1, 2, 3, 4, 6, 12])
    for k in range(layers - 1, 0, -1):
        for pid in ids_by_layer[k]:
            for qid in ids_by_layer[k - 1]:
                if rng.random() < 0.7:
                    count = rng.randint(-4, 4)
                    if count != 0:
                        # force divisibility upward: source order divides target
                        orders[qid] = orders[qid] * orders[pid]
                    if unknown_chance and rng.random() < unknown_chance:
                        flows.append(FlowCount(pid, qid, None))
                    else:
                        flows.append(FlowCount(pid, qid, count))
    points = [CriticalPointRecord(p.id, p.index, orders[p.id]) for p in points]
    return MorseDatum(tuple(points), tuple(flows))


class TestRatioIdentity:
    def test_teardrop_both_sides_zero(self, teardrop):
        report = ratio_identity_check(teardrop(2, 3))
        assert report.ok
        assert all(e.invariant_side == 0 and e.coinvariant_side == 0
                   for e in report.entries)

    def test_single_chain(self):
        # chain p -> q -> r with counts (a, b) and orders (1, s, s*t):
        # both sides evaluate to a*b*s*t
        a, b, s, t = 3, -2, 2, 5
        datum = MorseDatum(
            points=(CriticalPointRecord("p", 2, 1),
                    CriticalPointRecord("q", 1, s),
                    CriticalPointRecord("r", 0, s * t)),
            flows=(FlowCount("p", "q", a), FlowCount("q", "r", b)))
        report = ratio_identity_check(datum)
        assert report.ok
        entry = report.entries[0]
        assert entry.coinvariant_side == a * b * s * t

    def test_fuzz_arbitrary_counts(self):
        rng = random.Random(424242)
        checked = 0
        while checked < 100:
            datum = random_valid_layered_datum(rng)
            if not validate(datum).ok:
                continue
            report = ratio_identity_check(datum)
            assert report.ok
            checked += 1


class TestIntegralityProperty:
    def test_invariant_complex_integral_on_random_valid_datums(self):
        rng = random.Random(31337)
        built = 0
        while built < 500:
            datum = random_valid_layered_datum(rng)
            if not validate(datum).ok:
                continue
            # entries must all be integers; boundary squared may fail, which
            # is fine for this property
            try:
                invariant_complex(datum)
            except BoundarySquaredNonzero:
                pass
            built += 1


def reference_ratio_entries(datum):
    """The ratio identity's two sides as a triple sum over middle points."""
    counts = {(f.source, f.target): f.count for f in datum.flows}

    def c(a, b):
        return counts.get((a.id, b.id), 0)

    entries = []
    for p in datum.points:
        for r in datum.points:
            if p.index - r.index != 2:
                continue
            co = inv = 0
            for q in datum.points:
                if q.index == p.index - 1:
                    co += c(p, q) * c(q, r)
                    inv += ((c(p, q) * q.stab_order // p.stab_order)
                            * (c(q, r) * r.stab_order // q.stab_order))
            entries.append((p.id, r.id, inv * p.stab_order, co * r.stab_order))
    return entries


def double_suspension_datum():
    """One point per simplex of the double suspension of RP^2 (287 points),
    stabilizer order 2^(top - index), counts the simplicial boundary signs."""
    space = suspension(suspension(projective_plane()))
    top = space.dimension()
    simplices = [s for k in range(top + 1) for s in space.simplices(k)]
    points = [CriticalPointRecord("|".join(s), len(s) - 1,
                                  2 ** (top - len(s) + 1)) for s in simplices]
    flows = [FlowCount("|".join(s), "|".join(s[:d] + s[d + 1:]), (-1) ** d)
             for s in simplices if len(s) > 1 for d in range(len(s))]
    return MorseDatum(points, flows)


def shuffled(datum, rng):
    """The same datum with its points and flows in random order."""
    return MorseDatum(rng.sample(datum.points, len(datum.points)),
                      rng.sample(datum.flows, len(datum.flows)))


def random_complex_datum(rng):
    """Valid datum with 3 or 4 degrees whose boundary squared is zero:
    free points, and pairs from (k + 1, s) to (k, s * ratio) with a count,
    mixed by changes of basis among points of equal index and stabilizer
    order (which keep divisibility), plus zero counts between other
    points one degree apart.  Half the datums leave a middle degree
    empty.  Records come shuffled."""
    top = rng.choice((2, 3))
    empty = rng.choice([None] * (top - 1) + list(range(1, top)))
    degrees = [k for k in range(top + 1) if k != empty]
    points = [(0, rng.choice((1, 2, 6))), (top, 1)]
    entries = {}                # (lower point, upper point) -> count
    for _ in range(rng.randint(2, 8)):
        k = rng.choice(degrees)
        if k + 1 not in degrees or rng.random() < 0.2:
            points.append((k, rng.choice((1, 2, 3))))
            continue
        s = rng.choice((1, 2, 3))
        points += [(k + 1, s), (k, s * rng.choice((1, 2, 3)))]
        entries[(len(points) - 1, len(points) - 2)] = rng.choice(
            (1, -1, 2, -3))
    blocks = {}
    for i, shape in enumerate(points):
        blocks.setdefault(shape, []).append(i)
    for members in blocks.values():
        for _ in range(2 * len(members) if len(members) > 1 else 0):
            i, j = rng.sample(members, 2)
            a = rng.choice((1, -1, 2))
            # new basis vector e_j + a e_i
            for (r, c), v in list(entries.items()):
                if c == i:
                    entries[(r, j)] = entries.get((r, j), 0) + a * v
            for (r, c), v in list(entries.items()):
                if r == j:
                    entries[(i, c)] = entries.get((i, c), 0) - a * v
    for _ in range(rng.randint(0, 4)):
        upper, lower = rng.sample(range(len(points)), 2)
        if points[upper][0] == points[lower][0] + 1:
            entries.setdefault((lower, upper), 0)
    ids = [f"x{n}" for n in rng.sample(range(100), len(points))]
    records = [CriticalPointRecord(ids[i], k, s)
               for i, (k, s) in enumerate(points)]
    flows = [FlowCount(ids[c], ids[r], v) for (r, c), v in entries.items()]
    rng.shuffle(records)
    rng.shuffle(flows)
    return MorseDatum(records, flows)


class TestBoundariesFromFlows:
    def test_complexes_equal_the_incidence_build(self):
        rng = random.Random(5150)
        zero_counts = empty_degrees = 0
        for _ in range(300):
            datum = random_complex_datum(rng)
            assert validate(datum).ok
            by_id = {p.id: p for p in datum.points}
            top = max(p.index for p in datum.points)
            generators = [[p.id for p in datum.points if p.index == k]
                          for k in range(top + 1)]
            for build, value in [
                    (coinvariant_complex, lambda p, q, c: c),
                    (invariant_complex,
                     lambda p, q, c: c * q.stab_order // p.stab_order)]:
                reference = FreeChainComplex.from_incidences(generators, [
                    (by_id[f.source].index, f.source, f.target,
                     value(by_id[f.source], by_id[f.target], f.count))
                    for f in datum.flows])
                built = build(datum)
                assert built == reference
                assert hash(built) == hash(reference)
            zero_counts += any(f.count == 0 for f in datum.flows)
            empty_degrees += not all(generators)
        assert zero_counts > 50 and empty_degrees > 50

    def test_ratio_entries_equal_the_triple_sum(self):
        rng, order = random.Random(424242), random.Random(7)
        checked = 0
        while checked < 100:
            datum = random_valid_layered_datum(rng)
            if not validate(datum).ok:
                continue
            for d in (datum, shuffled(datum, order)):
                report = ratio_identity_check(d)
                assert [(e.source, e.target, e.invariant_side,
                         e.coinvariant_side) for e in report.entries] == (
                    reference_ratio_entries(d))
            checked += 1

    @pytest.mark.parametrize("make", [make_bean, double_suspension_datum],
                             ids=["bean", "double-suspension-rp2"])
    def test_weighting_runs_once_per_flow(self, monkeypatch, make):
        datum = make()
        real = morse_datum._stabilizer_ratio
        calls = []

        def counted(p, q, c):
            calls.append((p.id, q.id))
            return real(p, q, c)

        monkeypatch.setattr(morse_datum, "_stabilizer_ratio", counted)
        invariant_complex(datum)
        assert sorted(calls) == sorted((f.source, f.target)
                                       for f in datum.flows)

    def test_entries_are_the_flow_counts(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 100:
            datum = random_valid_layered_datum(rng)
            if len({p.index for p in datum.points}) != 2 or not validate(datum):
                continue
            checked += 1
            datum = shuffled(datum, rng)
            counts = {(f.source, f.target): f.count for f in datum.flows}
            order = {p.id: p.stab_order for p in datum.points}
            co, inv = coinvariant_complex(datum), invariant_complex(datum)
            assert co.generators == inv.generators == tuple(
                tuple(p.id for p in datum.points if p.index == k)
                for k in (0, 1))
            assert co.boundary(0).rows == inv.boundary(0).rows == 0
            for i, target in enumerate(co.generators[0]):
                for j, source in enumerate(co.generators[1]):
                    c = counts.get((source, target), 0)
                    assert co.boundary(1)[i, j] == c
                    assert inv.boundary(1)[i, j] == (
                        c * order[target] // order[source])
