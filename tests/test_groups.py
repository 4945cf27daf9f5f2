import pytest

from treeshift.errors import GroupMismatchError, RankMismatchError, ValidationError, alphabet
from treeshift.freegroup import identity, parse_word
from treeshift.groups import (
    custom_group,
    free_group,
    group_from_json,
    induced_config,
    integer_lattice,
    lattice_unit_element,
)
from treeshift.shift import periodic_config, random_config

BITS = alphabet([0, 1])


def parity_on_z():
    z = integer_lattice(d=1)
    return z, periodic_config(z, BITS, [0, 1])


class TestNormalForm:
    def test_free_model_reduces(self):
        f2 = free_group(2)
        w = parse_word("g0 g0' g1", 2)
        assert f2.normalize(w).payload == parse_word("g1", 2)

    def test_lattice_abelianizes(self):
        z2 = integer_lattice(d=2)
        w = parse_word("g0 g1 g0'", 2)
        assert z2.normalize(w).payload == (0, 1)

    def test_z_counts_exponents(self):
        z = integer_lattice(d=1)
        w = parse_word("g0 g0 g0 g0'", 1)
        assert z.normalize(w).payload == (2,)

    def test_rank_check(self):
        with pytest.raises(RankMismatchError):
            free_group(2).normalize(identity(3))

    def test_identity_element(self):
        z2 = integer_lattice(d=2)
        assert z2.identity().payload == (0, 0)

    def test_multiply_respects_classes(self):
        z2 = integer_lattice(d=2)
        a = z2.normalize(parse_word("g0 g1", 2))
        b = z2.normalize(parse_word("g1' g0", 2))
        assert z2.multiply(a, b).payload == (2, 0)

    def test_custom_normalizer(self):
        # Z/3 through a word-length-style callback
        z3 = custom_group(1, lambda w: sum(1 if x > 0 else -1 for x in w.letters) % 3)
        assert z3.normalize(parse_word("g0 g0 g0 g0", 1)).payload == 1

    def test_custom_models_equal_only_with_one_normalizer(self):
        # each model and its normalizer are dropped at once, so a key holding
        # only the normalizer's id could repeat the id of a freed one
        keys = [custom_group(1, lambda w: len(w) % 2).key for _ in range(50)]
        assert len(set(keys)) == 50
        parity = lambda w: len(w) % 2  # noqa: E731
        assert custom_group(1, parity) == custom_group(1, parity)
        assert custom_group(1, parity) != custom_group(1, lambda w: len(w) % 2)

    def test_element_equality_ignores_representative(self):
        z = integer_lattice(d=1)
        a = z.normalize(parse_word("g0 g0 g0'", 1))
        b = z.normalize(parse_word("g0", 1))
        assert a == b and hash(a) == hash(b)


class TestInducedConfig:
    def test_parity_at_squared_generator(self):
        z, parity = parity_on_z()
        induced = induced_config(z, parity)
        assert induced.eval_word(parse_word("g0 g0", 1)) == 0

    def test_lattice_sum_mod_two(self):
        z2 = integer_lattice(d=2)
        sigma = periodic_config(z2, BITS, [[0, 1], [1, 0]], periods=[2, 2])
        induced = induced_config(z2, sigma)
        assert induced.eval_word(parse_word("g0 g1 g0'", 2)) == 1

    def test_identity_agrees(self):
        z2 = integer_lattice(d=2)
        sigma = random_config(z2, BITS, seed=5)
        induced = induced_config(z2, sigma)
        assert induced.eval_word(identity(2)) == sigma.eval(z2.identity())

    def test_group_mismatch(self):
        z, parity = parity_on_z()
        with pytest.raises(GroupMismatchError):
            induced_config(integer_lattice(d=2), parity)

    def test_relator_collapse(self):
        z2 = integer_lattice(d=2)
        commutator = parse_word("g0 g1 g0' g1'", 2)
        for seed in range(5):
            sigma = random_config(z2, BITS, seed=seed)
            induced = induced_config(z2, sigma)
            for text in ("e", "g0", "g1'", "g0 g1", "g1 g1 g0'"):
                w = parse_word(text, 2)
                assert induced.eval_word(commutator * w) == induced.eval_word(w)

    def test_equivariance_with_quotient(self):
        z, _ = parity_on_z()
        sigma = random_config(z, BITS, seed=9)
        induced = induced_config(z, sigma)
        step = parse_word("g0", 1)
        lhs = induced.shifted(step)
        rhs = induced_config(z, sigma.shifted(z.normalize(step)))
        for text in ("e", "g0", "g0'", "g0 g0"):
            w = parse_word(text, 1)
            assert lhs.eval_word(w) == rhs.eval_word(w)

    def test_injective_on_distinct_oracles(self):
        z, _ = parity_on_z()
        s1 = random_config(z, BITS, seed=1)
        s2 = random_config(z, BITS, seed=2)
        witnesses = [
            w for w in (parse_word(t, 1) for t in ("e", "g0", "g0'", "g0 g0", "g0' g0'"))
            if induced_config(z, s1).eval_word(w) != induced_config(z, s2).eval_word(w)
        ]
        assert witnesses, "sampled oracles should differ somewhere in the ball"


class TestLatticeUnit:
    def test_builds_integers(self):
        z = integer_lattice(d=1)
        assert lattice_unit_element(z, -3).payload == (-3,)
        assert lattice_unit_element(z, 0).payload == (0,)

    def test_needs_unit_image(self):
        doubled = integer_lattice(d=1, images=[[2]])
        with pytest.raises(ValidationError):
            lattice_unit_element(doubled, 1)


class TestJson:
    def test_reads_free(self):
        model = group_from_json({"kind": "free", "M": 2})
        assert model == free_group(2)

    def test_reads_lattice(self):
        spec = {"kind": "lattice", "d": 2, "images": [[1, 0], [0, 1]]}
        model = group_from_json(spec)
        assert model == integer_lattice(d=2)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            group_from_json({"kind": "braid"})
