"""Classical pairwise separation axioms: the pairwise soft checkers on
one-parameter spaces, where strong membership is plain membership."""

from itertools import product

from bisoft.axioms import pairwise_soft_t0, pairwise_soft_t1, pairwise_soft_t2
from bisoft.search import enumerate_topologies
from bisoft.softset import Context, SoftSet
from bisoft.space import BiSoftSpace, slice_space
from bisoft.topology import validate_topology

CTX = Context.of(("a", "b"), ("e",))
DISCRETE = validate_topology([SoftSet(CTX, m) for m in (0, 1, 2, 3)])
INDISCRETE = validate_topology([SoftSet(CTX, m) for m in (0, 3)])


class TestPwT0:
    def test_discrete_side_suffices(self):
        assert pairwise_soft_t0(BiSoftSpace(DISCRETE, INDISCRETE))

    def test_two_indiscrete_fail(self):
        assert not pairwise_soft_t0(BiSoftSpace(INDISCRETE, INDISCRETE))

    def test_slice_failure_example(self, space_of):
        assert not pairwise_soft_t0(slice_space(space_of("t0a"), "e1"))
        assert pairwise_soft_t0(slice_space(space_of("t0a"), "e2"))


class TestPwT1:
    def test_discrete_pair(self):
        assert pairwise_soft_t1(BiSoftSpace(DISCRETE, DISCRETE))

    def test_indiscrete_second_topology_fails(self):
        assert not pairwise_soft_t1(BiSoftSpace(DISCRETE, INDISCRETE))

    def test_one_sided_slices_fail(self, space_of):
        s = space_of("t1c")
        assert not pairwise_soft_t1(slice_space(s, "e1"))
        assert not pairwise_soft_t1(slice_space(s, "e2"))


class TestPwT2:
    def test_discrete_pair(self):
        assert pairwise_soft_t2(BiSoftSpace(DISCRETE, DISCRETE))

    def test_indiscrete_first_topology_fails(self):
        assert not pairwise_soft_t2(BiSoftSpace(INDISCRETE, DISCRETE))

    def test_green_slice_fails(self, space_of):
        assert not pairwise_soft_t2(slice_space(space_of("rough"), "Green"))


def _enumerated_bitopologies(n):
    topos = list(enumerate_topologies(n))
    for p, q in product(topos, repeat=2):
        yield BiSoftSpace(p, q)


def test_implication_ladder_over_enumerated_spaces():
    for b in _enumerated_bitopologies(3):
        t2, t1, t0 = pairwise_soft_t2(b), pairwise_soft_t1(b), pairwise_soft_t0(b)
        if t2:
            assert t1
        if t1:
            assert t0


def test_swap_invariance_over_enumerated_spaces():
    for b in _enumerated_bitopologies(3):
        swapped = BiSoftSpace(b.t2, b.t1)
        assert pairwise_soft_t0(b) == pairwise_soft_t0(swapped)
        assert pairwise_soft_t1(b) == pairwise_soft_t1(swapped)
        assert pairwise_soft_t2(b) == pairwise_soft_t2(swapped)
