from itertools import product
from math import comb

import pytest

from bncurve.chain import (
    BNComponentId,
    ChainSpec,
    UnsupportedShapeError,
    all_components,
    bn_bound_check,
    bundle_name,
    component_tables,
    exhaustive_bound_search,
    limit_series_census,
    propagate,
    render_tables,
    rho,
)
from bncurve.combinatorics import catalan, enumerate_ballot, generalized_catalan


def rendered(chain, comp):
    return tuple(bundle_name(u, chain.d) for u in propagate(chain, comp)[1])


class TestRho:
    def test_examples(self):
        assert rho(5, 1, 4) == 1
        assert rho(4, 1, 3) == 0
        assert rho(3, 1, 2) == -1

    def test_rho_one_shape(self):
        for a in range(1, 9):
            assert rho(2 * a + 1, 1, a + 2) == 1


class TestPropagate:
    def test_table_column_c1_prime(self):
        chain = ChainSpec.rho_one(2)
        comp = BNComponentId((1, 2, 1, 2), 1)
        assert rendered(chain, comp) == ("L", "P+3Q", "3P+Q", "2P+2Q", "4P")

    def test_table_column_c2_doubleprime(self):
        chain = ChainSpec.rho_one(2)
        comp = BNComponentId((1, 1, 2, 2), 2)
        assert rendered(chain, comp) == ("4Q", "L", "P+3Q", "4P", "4P")

    def test_small_chain(self):
        # hand-propagated: (0,1) -> choice 1 -> (0,2) -> choice 2 -> (1,2)
        chain = ChainSpec.rho_one(1)
        comp = BNComponentId((1, 2), 3)
        _, offsets = propagate(chain, comp)
        assert offsets == [0, 2, None]

    def test_vanishing_monotone_and_bounded(self):
        for a in (1, 2, 3):
            chain = ChainSpec.rho_one(a)
            for comp in all_components(chain):
                vanishing, _ = propagate(chain, comp)
                assert len(vanishing) == chain.g
                for u1, u2 in vanishing:
                    assert 0 <= u1 < u2 <= chain.d

    def test_counting_identity(self):
        # u1 counts the positions before i where presentation 1 was not
        # chosen; u2 is one more than the not-2 count (marked counts as
        # not-chosen for both)
        for a in (1, 2, 3):
            chain = ChainSpec.rho_one(a)
            for comp in all_components(chain):
                vanishing, _ = propagate(chain, comp)
                choices = []
                pos = 0
                for i in range(1, chain.g + 1):
                    if i == comp.marked:
                        choices.append(None)
                    else:
                        choices.append(comp.sequence[pos])
                        pos += 1
                for i in range(chain.g):
                    u1, u2 = vanishing[i]
                    assert u1 == sum(1 for c in choices[:i] if c != 1)
                    assert u2 == 1 + sum(1 for c in choices[:i] if c != 2)

    def test_injectivity_of_sequence_to_tuple(self):
        for a in range(1, 6):
            chain = ChainSpec.rho_one(a)
            for marked in range(1, chain.g + 1):
                seen = {}
                for seq in enumerate_ballot(a, 2):
                    comp = BNComponentId(seq.symbols, marked)
                    key = tuple(propagate(chain, comp)[1])
                    assert key not in seen
                    seen[key] = comp

    def test_malformed_sequence_rejected(self):
        chain = ChainSpec.rho_one(2)
        with pytest.raises(ValueError):
            propagate(chain, BNComponentId((1, 2), 1))


class TestComponentTables:
    def test_g5_has_ten_columns(self):
        chain = ChainSpec.rho_one(2)
        tables = component_tables(chain)
        assert len(tables) == 10

    def test_column_c2_prime(self):
        chain = ChainSpec.rho_one(2)
        tables = component_tables(chain)
        comp = BNComponentId((1, 2, 1, 2), 2)
        assert tuple(bundle_name(u, 4) for u in tables[comp]) == (
            "4Q", "L", "3P+Q", "2P+2Q", "4P",
        )

    def test_column_c4_doubleprime(self):
        chain = ChainSpec.rho_one(2)
        tables = component_tables(chain)
        comp = BNComponentId((1, 1, 2, 2), 4)
        assert tuple(bundle_name(u, 4) for u in tables[comp]) == (
            "4Q", "4Q", "3P+Q", "L", "4P",
        )

    def test_g3_has_three_columns(self):
        chain = ChainSpec.rho_one(1)
        assert len(component_tables(chain)) == 3

    def test_render_formats(self):
        chain = ChainSpec.rho_one(1)
        text = render_tables(chain, "text")
        csv = render_tables(chain, "csv")
        assert "L" in text and "3Q" in text
        assert csv.splitlines()[0] == "C_i,12|1,12|2,12|3"
        with pytest.raises(ValueError):
            render_tables(chain, "yaml")


class TestBundle:
    def test_render(self):
        assert bundle_name(0, 4) == "4Q"
        assert bundle_name(4, 4) == "4P"
        assert bundle_name(1, 4) == "P+3Q"
        assert bundle_name(None, 4) == "L"

    def test_fixed_range(self):
        with pytest.raises(ValueError):
            bundle_name(-1, 4)
        with pytest.raises(ValueError):
            bundle_name(5, 4)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_every_offset_names_its_divisor(self, d):
        # parse each name back into the coefficients of uP + (d-u)Q: terms
        # in P, Q order, no zero term; a lone term always writes its
        # coefficient, a sum drops unit ones
        for u in range(d + 1):
            terms = bundle_name(u, d).split("+")
            points = [term[-1] for term in terms]
            assert points == sorted(set(points))
            coeffs = {"P": 0, "Q": 0}
            for term in terms:
                digits, point = term[:-1], term[-1]
                assert point in coeffs
                assert digits if len(terms) == 1 else digits != "1"
                coeffs[point] = int(digits) if digits else 1
                assert coeffs[point] > 0
            assert (coeffs["P"], coeffs["Q"]) == (u, d - u)
        assert bundle_name(None, d) == "L"
        for u in (-1, d + 1):
            with pytest.raises(ValueError):
                bundle_name(u, d)


class TestBoundCheck:
    def test_propagate_outputs_satisfy_bound(self):
        chain = ChainSpec.rho_one(2)
        for comp in all_components(chain):
            _, offsets = propagate(chain, comp)
            eps, bound, ok = bn_bound_check(chain, offsets)
            assert eps == 1 and bound == 1 and ok

    def test_rho_zero_forbids_free_components(self):
        chain = ChainSpec(g=4, d=3)
        eps, bound, ok = bn_bound_check(chain, [None] + [0] * 3)
        assert bound == 0 and not ok
        eps, bound, ok = bn_bound_check(chain, [0] * 4)
        assert ok

    def test_negative_rho_empty_search(self):
        assert rho(3, 1, 2) == -1
        assert exhaustive_bound_search(3, 1, 2) == []

    def test_positive_rho_search_nonempty(self):
        assert exhaustive_bound_search(5, 1, 4)

    def test_search_matches_subset_walk(self):
        # reference: walk all 2^g free subsets and keep those within rho
        for g in range(1, 9):
            for r in range(1, g + 1):
                for d in range(1, 2 * g + 1):
                    bound = rho(g, r, d)
                    walk = {
                        (
                            tuple(i + 1 for i, f in enumerate(free) if f),
                            (r + 1) ** (g - sum(free)),
                        )
                        for free in product((False, True), repeat=g)
                        if sum(free) <= bound
                    }
                    found = exhaustive_bound_search(g, r, d)
                    assert len(found) == len(set(found))
                    assert set(found) == walk, (g, r, d)
                    assert sum(size for _, size in found) == sum(
                        comb(g, k) * (r + 1) ** (g - k)
                        for k in range(min(bound, g) + 1)
                    )


class TestCensus:
    def test_bad_shape(self):
        with pytest.raises(UnsupportedShapeError):
            limit_series_census(6, 1, 5)  # rho = 2
        with pytest.raises(UnsupportedShapeError):
            limit_series_census(4, 1, 4)  # rho = 2, not a modeled shape

    def test_finite(self):
        assert limit_series_census(4, 1, 3).count == 2
        assert limit_series_census(6, 2, 6).count == generalized_catalan(2, 3)

    def test_curve(self):
        census = limit_series_census(5, 1, 4)
        assert census.kind == "curve" and census.count == 10
        for a in range(1, 9):
            census = limit_series_census(2 * a + 1, 1, a + 2)
            assert census.count == (2 * a + 1) * catalan(a)

    def test_empty(self):
        assert limit_series_census(3, 1, 2).kind == "empty"
        assert limit_series_census(9, 2, 3).kind == "empty"
