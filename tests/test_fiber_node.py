"""Differential test: node-local fiber resolution against the full-chain loop.

`resolution_fiber_class` runs its toric blowups on the two node spheres alone
and splices the result into the chain once. `_reference` is the earlier
version, which blew up the whole chain each time and tracked every exceptional
sphere's position and basis index. `_reference` also recomputes the fiber
from the lattice squares of the chain (`cfg.selfints()`), while the product
takes it from the caller's delta sequence; both must give the same
configuration, fiber class, multiplicities and last meeting sphere.
"""

import random

import pytest

from wpp.arith import weight_sequence
from wpp.errors import BadIndex, LemmaViolated, NotAtSignChange
from wpp.homlat import dense, sparse
from wpp.resolution import build_resolution
from wpp.rulings import ruling
from wpp.scan import coprime_triples
from wpp.strings import (
    abstract_chain,
    delta_sequence,
    fiber_class,
    resolution_fiber_class,
    toric_blowup,
)


def _reference(cfg, upto):
    """The full-chain blowup loop: (config, fiber, multiplicities, last meeting)."""
    fd = fiber_class(cfg, delta_sequence(cfg.selfints()).deltas, upto)
    p, q = fd.p, fd.q
    if not (q > 0 and p >= 0):
        raise NotAtSignChange(f"minors at position {upto}")
    mults = weight_sequence(p, q)
    big_l = len(mults)
    if big_l == 0:
        return cfg, fd.fclass, (), upto if upto < len(cfg.components) else None
    if upto >= len(cfg.components):
        raise BadIndex("sign-change node has no right neighbour to blow up")
    pairs = [(p, q)]
    while pairs[-1] != (1, 1):
        a, b = pairs[-1]
        pairs.append((a - b, b) if a > b else (a, b - a))
    if len(pairs) != big_l or [min(a, b) for a, b in pairs] != list(mults):
        raise LemmaViolated("subtraction pairs miss the weight sequence")
    res = toric_blowup(cfg, upto - 1, upto, label="C1")
    cur = res.config
    c_pos = res.position
    exc_positions = [c_pos]
    exc_basis = [cur.lattice.rank - 1]
    for i in range(1, big_l):
        a, b = pairs[i - 1]
        if a > b:
            res = toric_blowup(cur, c_pos - 1, c_pos, label=f"C{i+1}")
        else:
            res = toric_blowup(cur, c_pos, c_pos + 1, label=f"C{i+1}")
        new_pos = res.position
        cur = res.config
        for idx in range(len(exc_positions)):
            if exc_positions[idx] >= new_pos:
                exc_positions[idx] += 1
        exc_positions.append(new_pos)
        exc_basis.append(cur.lattice.rank - 1)
        c_pos = new_pos
    f = list(dense(fd.fclass, cur.lattice.rank))
    for m, eb in zip(mults, exc_basis):
        f[eb] -= m
    return cur, sparse(f), tuple(mults), exc_positions[-1]


def _assert_same(cfg, fd):
    rf = resolution_fiber_class(cfg, fd)
    config, fclass, mults, last = _reference(cfg, fd.upto)
    # DivisorConfig equality covers labels, classes, lattice rank and canonical
    assert rf.config == config
    assert rf.fclass == fclass
    assert rf.multiplicities == mults
    assert rf.last_meeting == last
    return rf


def _assert_telescoping(selfints):
    """sum_{i<k} d_i (-2 - s_i) == -p - q - 1 at every sign change k."""
    ds = delta_sequence(selfints).deltas
    ks = [k for k in range(1, len(ds)) if ds[k - 1] > 0 >= ds[k]]
    for k in ks:
        p, q = -ds[k], ds[k - 1]
        assert sum(ds[i] * (-2 - selfints[i]) for i in range(k)) == -p - q - 1
    return len(ks)


def _forward_chains(triples):
    for t in triples:
        for pres in range(1, 7):
            rd = ruling(build_resolution(*t, presentation=pres), "c")
            if rd.case == "Unicuspidal":
                yield rd.forward


def test_every_unicuspidal_ruling_up_to_c20():
    count = 0
    for fwd in _forward_chains(coprime_triples(20)):
        rf = _assert_same(fwd.config, fwd.fiber)
        assert rf.multiplicities
        assert _assert_telescoping(fwd.config.selfints()) >= 1
        count += 1
    assert count == 1170


@pytest.mark.parametrize("triple, pq", [
    ((163, 283, 369), (70, 1)),
    ((185, 291, 317), (57, 2)),
    ((99, 127, 155), (1, 49)),
])
def test_rank_at_least_100(triple, pq):
    rp = build_resolution(*triple)
    assert rp.lattice.rank >= 100
    rd = ruling(rp, "c")
    assert rd.case == "Unicuspidal" and (rd.pa, rd.qa) == pq
    fwd = rd.forward
    rf = _assert_same(fwd.config, fwd.fiber)
    assert len(rf.multiplicities) >= 30
    _assert_telescoping(fwd.config.selfints())


def test_seeded_abstract_chains():
    rng = random.Random(20260518)
    resolved = raised = 0
    for _ in range(800):
        s = tuple(rng.randint(-4, -1) for _ in range(rng.randint(2, 10)))
        _assert_telescoping(s)
        big_k = delta_sequence(s).first_sign_change()
        if big_k is None:
            continue
        cfg = abstract_chain(s)
        fd = fiber_class(cfg, delta_sequence(s).deltas, big_k)
        try:
            _reference(cfg, big_k)
        except BadIndex:
            with pytest.raises(BadIndex):
                resolution_fiber_class(cfg, fd)
            raised += 1
        else:
            _assert_same(cfg, fd)
            resolved += 1
    assert resolved > 150 and raised > 0
