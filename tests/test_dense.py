"""Dense-table operations against the diagram kernel, value by value.

A solve projects only the first variable of a table, and its joins and
values are the ones its trees produce; these cases project any variable of
random tables in random variable orders.  Each table is built both in a
DenseStore and, through the truth-table helpers, as a diagram in a store with
the same order, and every operation must give bit-identical values, the
same support and the same underflow flag; derivative signs must pick the
same value at every assignment.  The table store's value range and
pointwise comparison, which only the annotated debug run uses, are checked
against the values at every assignment.
"""

import random

import pytest

from dper import dense
from dper.dense import DenseStore, Table, _varies
from dper.pbf import _MIN_NORMAL, DiagramStore, PbFunc

from conftest import all_assignments, diagram_from_table, tbl_eval, tbl_from_rows

VARS = list(range(1, 8))
VALUES = [0.0, 0.0, 1.0, 1.0, 0.25, 0.3, 0.5, 0.7, 1e-200, 3e-308, 1e-310]
PROBS = [0.0, 0.3, 0.5, 0.6, 1.0, 1e-300]
ONES = tbl_from_rows(VARS[:3], [1.0] * 8)  # joined in, adds axes, not support


def random_table(rng, max_vars=5):
    vs = sorted(rng.sample(VARS, rng.randint(0, max_vars)))
    return tbl_from_rows(vs, [rng.choice(VALUES) for _ in range(1 << len(vs))])


def dense_from_table(store, table):
    """The function holding `table` in the dense store, its variables in
    store order."""
    vs = tuple(sorted(table[0], key=store.rank))
    rows = [0.0] * (1 << len(vs))
    for a in all_assignments(vs):
        index = 0
        for v in vs:
            index = 2 * index + a[v]
        rows[index] = tbl_eval(table, a)
    return PbFunc(store, Table(vs, rows, min(filter(None, rows), default=1.0)))


def values(f, variables):
    return [f.evaluate(a) for a in all_assignments(variables)]


def same(dense, diagram, variables):
    for a in all_assignments(variables):
        assert dense.evaluate(a).hex() == diagram.evaluate(a).hex(), a
    assert dense.support == diagram.support
    vals = values(dense, variables)
    assert dense.store.value_range(dense.root) == (min(vals), max(vals))


def stores(rng):
    order = rng.sample(VARS, len(VARS))
    return DenseStore(order), DiagramStore(order)


def test_operations_match_the_kernel():
    rng = random.Random(101)
    flagged = {"join": 0, "rand_project": 0}
    for _ in range(400):
        fa, fb = random_table(rng), random_table(rng)
        ds, gs = stores(rng)
        same(dense_from_table(ds, fa).join(dense_from_table(ds, fb)),
             diagram_from_table(gs, fa).join(diagram_from_table(gs, fb)),
             sorted(set(fa[0]) | set(fb[0])))
        assert ds.underflow == gs.underflow
        flagged["join"] += gs.underflow
        x, p = rng.choice(VARS), rng.choice(PROBS)
        rest = sorted(set(fa[0]) - {x})
        for op in ("exists_project", "rand_project", "dsgn"):
            ds, gs = stores(rng)
            args = (x, p) if op == "rand_project" else (x,)
            dense = getattr(dense_from_table(ds, fa), op)(*args)
            diagram = getattr(diagram_from_table(gs, fa), op)(*args)
            if op == "dsgn":
                for a in all_assignments(rest):
                    assert dense.pick(a) == diagram.pick(a), a
            else:
                same(dense, diagram, rest)
            assert ds.underflow == gs.underflow, op
            flagged.setdefault(op, 0)
            flagged[op] += gs.underflow
    # the tiny values and probabilities do underflow, in joins and combinations
    assert flagged["join"] and flagged["rand_project"]


def test_floored_joins_match_the_kernel():
    # a product floored at L is 0 wherever the product is below L, on
    # either store, with the same underflow flag; a floored join with a
    # constant 1 or with a clause floors too, as the kernel has no
    # short-cut for ONE under a floor.  The flag counts only the products
    # the join keeps: one below L is discarded, also where it underflows
    rng = random.Random(106)
    kept = discarded = 0  # joins with an underflowing product kept, dropped
    for _ in range(400):
        ds, gs = stores(rng)
        fa, fb, c = random_table(rng), random_table(rng), random_clause(rng)
        floor = rng.choice([1e-320, 1e-300, 0.1, 0.25, 0.3, 0.5, 1.0])
        others = [(ds.constant(1.0), gs.constant(1.0)),
                  (ds.clause_func(c), gs.clause_func(c)),
                  (dense_from_table(ds, fb), diagram_from_table(gs, fb))]
        variables = sorted(set(fa[0]) | set(fb[0]) | {abs(l) for l in c})
        flagged = False  # the rule's flag over this store pair's joins so far
        for db, gb in others:
            da, ga = dense_from_table(ds, fa), diagram_from_table(gs, fa)
            dense, diagram = da.join(db, floor), ga.join(gb, floor)
            same(dense, diagram, variables)
            under = set()  # whether each underflowing product is kept
            for a in all_assignments(variables):
                u, v = ga.evaluate(a), gb.evaluate(a)
                z = u * v
                assert diagram.evaluate(a) == (z if z >= floor else 0.0), a
                if z < _MIN_NORMAL and u not in (0.0, 1.0) and v not in (0.0, 1.0):
                    under.add(z >= floor)
            flagged = flagged or True in under
            kept += True in under
            discarded += False in under
            assert ds.underflow == gs.underflow == flagged
    assert kept and discarded


def random_clause(rng):
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(VARS, rng.randint(0, 5))]


def test_clause_joins_match_the_kernel():
    # a clause is a plain 0/1 table, so its joins run through the same
    # product as any other; times 0 and times 1 are exact, and the operands
    # include subnormal entries, which the product's underflow scan must
    # exempt when the other side is a clause, as the kernel's short-cuts do
    rng = random.Random(102)
    for _ in range(400):
        ds, gs = stores(rng)
        c = random_clause(rng)
        if rng.random() < 0.5:
            fa = random_table(rng, max_vars=7)
            dense, diagram = dense_from_table(ds, fa), diagram_from_table(gs, fa)
            variables = set(fa[0])
        else:
            other = random_clause(rng)
            dense, diagram = ds.clause_func(other), gs.clause_func(other)
            variables = {abs(l) for l in other}
        dc, gc = ds.clause_func(c), gs.clause_func(c)
        variables = sorted(variables | {abs(l) for l in c})
        same(dense.join(dc), diagram.join(gc), variables)
        same(dc.join(dense), gc.join(diagram), variables)
        assert ds.underflow == gs.underflow
        same(dense, diagram, variables)  # the operands are left as they were
        same(dc, gc, variables)


def test_comparisons_match_the_kernel():
    # approx_equal over tables of different variables, and at tolerance 0
    # between a table and the same function held over more axes
    rng = random.Random(103)
    for _ in range(400):
        ds, _ = stores(rng)
        fa, fb = random_table(rng), random_table(rng)
        da, db = dense_from_table(ds, fa), dense_from_table(ds, fb)
        variables = set(fa[0]) | set(fb[0])
        pairs = list(zip(values(da, variables), values(db, variables)))
        for tol in (0.0, 0.25, 1.0):
            assert (ds.approx_equal(da.root, db.root, tol)
                    == all(abs(u - v) <= tol for u, v in pairs)), tol
        wider = da.join(dense_from_table(ds, ONES))
        assert wider != da  # the same function, another table
        assert ds.approx_equal(da.root, wider.root, 0.0)


def test_partial_assignments_match_the_kernel():
    # variables a table does not vary along may be left out, as on
    # diagrams; leaving out a support variable raises KeyError
    rng = random.Random(104)
    for _ in range(400):
        ds, gs = stores(rng)
        fa = random_table(rng, max_vars=5)
        dense = dense_from_table(ds, fa).join(dense_from_table(ds, ONES))
        diagram = diagram_from_table(gs, fa)
        for a in all_assignments(set(fa[0]) | set(VARS[:3])):
            partial = {v: b for v, b in a.items() if rng.random() < 0.5}
            if diagram.support <= set(partial):
                assert dense.evaluate(partial) == diagram.evaluate(partial)
            else:
                with pytest.raises(KeyError, match="support variable"):
                    dense.evaluate(partial)


def test_varies_matches_brute_force_cofactors():
    # tables of 1 to 12 axes whose values follow a random subset of the
    # axes, half of them with one entry changed anywhere, so that an axis
    # may vary in its first pair of blocks, in a later one only, or nowhere
    rng = random.Random(105)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 12)
        live = [a for a in range(n) if rng.random() < 0.5]
        cells: dict = {}
        t = [cells.setdefault(tuple(i >> (n - 1 - a) & 1 for a in live),
                              rng.choice(VALUES))
             for i in range(1 << n)]
        if rng.random() < 0.5:
            t[rng.randrange(len(t))] = 0.9
        for axis in range(n):
            bit = 1 << (n - 1 - axis)
            want = any(t[i] != t[i | bit] for i in range(len(t)) if not i & bit)
            assert _varies(t, axis) == want, (n, axis)
            seen[want] += 1
    assert min(seen.values()) > 300


def naive_expand(table, variables):
    """Each entry over `variables` read from the bits of the table's own
    variables, the first variable the most significant bit."""
    n = len(variables)
    bit = {v: n - 1 - i for i, v in enumerate(variables)}
    out = []
    for i in range(1 << n):
        index = 0
        for v in table.vars:
            index = 2 * index + (i >> bit[v] & 1)
        out.append(table.entries[index])
    return out


@pytest.mark.parametrize("n, own", [
    (6, (1, 2, 3, 4, 5)),        # the innermost axis missing
    (6, (2, 3, 4, 5, 6)),        # the outermost axis missing
    (9, (1, 4, 5, 8)),           # two runs of missing axes, and the last
    (9, (2, 3, 6, 7, 8)),        # two runs, the outermost one of them
    (8, ()),                     # a constant table
    (8, (1, 2, 3, 4, 5, 6, 7, 8)),
])
def test_expand_matches_entries_read_by_bits(n, own):
    entries = [float(i) for i in range(1 << len(own))]
    table = Table(own, entries, 1.0)
    variables = tuple(range(1, n + 1))
    assert table.expand(variables) == naive_expand(table, variables)


def test_expand_takes_both_copy_paths(monkeypatch):
    # random tables over subsets of up to 12 variables; one pass of
    # `_repeat_blocks` per run of missing axes, by blocks or by stride
    real = dense._repeat_blocks
    paths = {"blocks": 0, "stride": 0}

    def spy(t, size, copies):
        paths["blocks" if len(t) <= copies * size * size else "stride"] += 1
        return real(t, size, copies)
    monkeypatch.setattr(dense, "_repeat_blocks", spy)
    rng = random.Random(106)
    for _ in range(200):
        n = rng.randint(0, 12)
        variables = tuple(range(1, n + 1))
        own = tuple(v for v in variables if rng.random() < 0.5)
        table = Table(own, [rng.random() for _ in range(1 << len(own))], 0.0)
        runs = sum(1 for i, v in enumerate(variables) if v not in own
                   and (i == 0 or variables[i - 1] in own))
        before = sum(paths.values())
        assert table.expand(variables) == naive_expand(table, variables)
        assert sum(paths.values()) - before == runs
    assert min(paths.values()) > 50, paths
