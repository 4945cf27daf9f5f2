from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeshift.errors import GroupMismatchError, ValidationError, alphabet
from treeshift.freegroup import enumerate_ball, parse_word
from treeshift.groups import (
    config_metric_interval,
    expansivity_witness,
    free_group,
    integer_lattice,
    lattice_unit_element,
)
from treeshift.shift import (
    AgreementDepth,
    Config,
    agree_depth,
    config_from_json,
    finite_support_config,
    flipped_config,
    periodic_config,
    random_config,
)

BITS = alphabet([0, 1])
Z = integer_lattice(d=1)
Z2 = integer_lattice(d=2)


def parity():
    return periodic_config(Z, BITS, [0, 1])


def z_point(k):
    return lattice_unit_element(Z, k)


class TestEval:
    def test_parity_at_three(self):
        assert parity().eval(z_point(3)) == 1

    def test_finite_support_default(self):
        sigma = finite_support_config(Z, BITS, {(0,): 1}, 0)
        assert sigma.eval(z_point(5)) == 0
        assert sigma.eval(z_point(0)) == 1

    @pytest.mark.parametrize("support, default", [({(0,): 2}, 0), ({(0,): 1}, "0")])
    def test_finite_support_symbols_must_be_in_the_alphabet(self, support, default):
        # refused when the support is built, not when its word is first read
        with pytest.raises(ValidationError, match="not in alphabet"):
            finite_support_config(Z, BITS, support, default)

    def test_constant(self):
        sigma = Config(Z, BITS, lambda p: 1)
        for k in (-4, 0, 7):
            assert sigma.eval(z_point(k)) == 1

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            parity().eval(Z2.identity())


class TestShiftAction:
    def test_translate_by_one(self):
        assert parity().shifted(z_point(1)).eval(z_point(0)) == 1

    def test_identity_shift(self):
        sigma = random_config(Z, BITS, seed=3)
        moved = sigma.shifted(Z.identity())
        for w in enumerate_ball(1, 3):
            assert moved.eval_word(w) == sigma.eval_word(w)

    def test_lattice_shift(self):
        sigma = random_config(Z2, BITS, seed=4)
        moved = sigma.shifted(Z2.normalize(parse_word("g0", 2)))
        lhs = moved.eval(Z2.normalize(parse_word("g1", 2)))
        rhs = sigma.eval(Z2.normalize(parse_word("g0 g1", 2)))
        assert lhs == rhs

    @settings(max_examples=40)
    @given(st.integers(0, 20), st.sampled_from(["e", "g0", "g0'", "g0 g1", "g1' g0"]),
           st.sampled_from(["e", "g1", "g1'", "g0 g0"]))
    def test_action_composition_law(self, seed, t1, t2):
        f2 = free_group(2)
        sigma = random_config(f2, BITS, seed=seed)
        gamma1 = f2.normalize(parse_word(t1, 2))
        gamma2 = f2.normalize(parse_word(t2, 2))
        double = sigma.shifted(gamma1).shifted(gamma2)
        joined = sigma.shifted(f2.multiply(gamma1, gamma2))
        for w in enumerate_ball(2, 3):
            assert double.eval_word(w) == joined.eval_word(w)


class TestAgreeDepth:
    def test_equal_configs(self):
        result = agree_depth(parity(), parity(), cap=4)
        assert result == AgreementDepth(4, exact=False)
        assert str(result) == ">=4"

    def test_differ_at_identity(self):
        shifted = parity().shifted(z_point(1))
        result = agree_depth(parity(), shifted, cap=4)
        assert result == AgreementDepth(-1, exact=True)
        assert str(result) == "differ at radius 0"

    def test_single_flip_at_two(self):
        flipped = flipped_config(parity(), parse_word("g0 g0", 1))
        assert agree_depth(parity(), flipped, cap=4) == AgreementDepth(1, exact=True)

    def test_a_one_symbol_configuration_has_no_flip(self):
        sigma = random_config(free_group(1), alphabet([0]), 1)
        with pytest.raises(ValidationError, match="one symbol"):
            flipped_config(sigma, parse_word("g0", 1))

    def test_alphabet_mismatch(self):
        other = periodic_config(Z, alphabet([0, 1, 2]), [0, 1, 2])
        with pytest.raises(ValidationError):
            agree_depth(parity(), other, cap=2)


class TestMetric:
    def test_zero_on_equal(self):
        interval = config_metric_interval(parity(), parity(), tail_cutoff=8)
        assert interval.lower == 0

    def test_single_difference_at_origin(self):
        base = finite_support_config(Z, BITS, {}, 0)
        bumped = finite_support_config(Z, BITS, {(0,): 1}, 0)
        interval = config_metric_interval(base, bumped, tail_cutoff=8)
        assert interval.lower == 1
        assert interval.contains(1)

    def test_parity_against_its_shift(self):
        # independent oracle: direct partial summation with a geometric tail;
        # every position differs by 1, so the partial sum to cutoff c is
        # 3 - 2^(1-c) and the true value 3 is the interval's upper end
        cutoff = 10
        partial = Fraction(1) + 2 * sum(Fraction(1, 2 ** i) for i in range(1, cutoff + 1))
        assert partial == 3 - Fraction(2, 2 ** cutoff)
        interval = config_metric_interval(parity(), parity().shifted(z_point(1)), cutoff)
        assert interval.lower == partial
        assert interval.upper == 3
        assert interval.contains(3)

    def test_width_is_tail_bound(self):
        interval = config_metric_interval(parity(), parity(), tail_cutoff=6)
        assert interval.width == Fraction(2, 2 ** 6)


class TestExpansivity:
    def test_witness_on_distinct_pairs(self):
        for seed in range(8):
            s1 = random_config(Z, BITS, seed=seed)
            s2 = random_config(Z, BITS, seed=seed + 100)
            depth = agree_depth(s1, s2, cap=6)
            if not depth.exact:
                continue
            n = expansivity_witness(s1, s2, cap=7)
            assert n is not None
            g = z_point(n)
            moved = config_metric_interval(s1.shifted(g), s2.shifted(g), 0)
            assert moved.lower >= 1

    def test_no_witness_for_equal(self):
        assert expansivity_witness(parity(), parity(), cap=5) is None


class TestJson:
    def test_periodic_spec(self):
        sigma = config_from_json(Z, BITS, {"rule": "periodic", "period": 2, "table": [0, 1]})
        assert sigma.eval(z_point(3)) == 1

    def test_finite_spec(self):
        sigma = config_from_json(Z, BITS, {"rule": "finite", "support": {"0": 1}, "default": 0})
        assert sigma.eval(z_point(0)) == 1
        assert sigma.eval(z_point(2)) == 0

    def test_unknown_rule(self):
        with pytest.raises(ValidationError):
            config_from_json(Z, BITS, {"rule": "markov"})

    @pytest.mark.parametrize("spec", [
        {"rule": "periodic", "period": 3, "table": [0, 1]},
        {"rule": "periodic", "period": 0, "table": []},
        {"rule": "periodic", "periods": [2, 2], "table": [0, 1]},
    ])
    def test_periodic_table_must_match_periods(self, spec):
        with pytest.raises(ValidationError):
            config_from_json(Z, BITS, spec)

    def test_nested_table_must_match_periods(self):
        z2 = integer_lattice(d=2)
        with pytest.raises(ValidationError, match=r"table\[1\]"):
            config_from_json(z2, BITS, {"rule": "periodic", "periods": [2, 2],
                                        "table": [[0, 1], [1]]})


@pytest.mark.parametrize("build, error, message", [
    (lambda: flipped_config(parity().shifted(z_point(1)), parse_word("g0", 1)), ValidationError,
     "flipped_config expects an unshifted configuration"),
    (lambda: agree_depth(parity(), random_config(free_group(1), BITS, 0), 2), GroupMismatchError,
     "configurations live on different groups"),
    (lambda: agree_depth(parity(), parity(), -1), ValidationError, "cap must be >= 0, got -1"),
    (lambda: config_from_json(Z, BITS, {"rule": "finite", "support": {"1,2": 1}, "default": 0}),
     ValidationError, "support key '1,2' has wrong dimension"),
    (lambda: alphabet([0, 1, 0]), ValidationError, "alphabet symbols must be distinct"),
])
def test_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
