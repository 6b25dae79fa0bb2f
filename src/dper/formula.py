"""Quantified weighted CNF problems and their primal graph.

The input format (ER-DIMACS) is line oriented:

    c <comment>
    p cnf <num_vars> <num_clauses>
    e v1 v2 ... 0             existential variables
    r <prob> v1 v2 ... 0      randomized variables, all with probability <prob>
    <lit> <lit> ... 0         clause lines (signed ints)

Quantifier lines must precede clause lines.  The problem solved is always
"exists X, random Y" over the declared blocks, regardless of the order of
the e/r lines.  Tautological clauses are dropped at parse time and duplicate
literals within a clause are collapsed, so a stored clause never mentions a
variable twice.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice


Variable = int
Clause = tuple[int, ...]  # signed DIMACS literals, no repeated variable

FREE_VARS_SHOWN = 5  # free variables named in the parse error


class FormulaError(Exception):
    """Bad input text or an invalid Problem."""


class ParseError(FormulaError):
    def __init__(self, msg, line=None):
        self.line = line
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)


class ValidationError(FormulaError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class Problem:
    """A CNF formula with an existential block X and a randomized block Y.

    Clause order is as given in the input file; the planner's leaf-to-clause
    map refers to clauses by position in this tuple.  Immutable, with no
    __slots__: the cached properties below live in the instance __dict__.
    """

    def __init__(self, num_vars: int, clauses: tuple[Clause, ...],
                 X: frozenset[Variable], Y: frozenset[Variable],
                 pr: dict[Variable, float] | None = None):
        self.__dict__.update(num_vars=num_vars, clauses=clauses, X=X, Y=Y,
                             pr={} if pr is None else pr)

    def __setattr__(self, name, value):
        raise AttributeError(f"Problem is immutable: cannot set {name!r}")

    def __eq__(self, other):  # unhashable, as pr is a dict
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_vars, self.clauses, self.X, self.Y, self.pr) == (
            other.num_vars, other.clauses, other.X, other.Y, other.pr)

    def clause_vars(self, idx: int) -> frozenset[Variable]:
        return self._clause_vars[idx]

    def all_clause_vars(self) -> frozenset[Variable]:
        """Variables that actually occur in some clause (vars of the formula)."""
        return self._all_clause_vars

    # computed on first use: a solve asks for each clause's set several
    # times, and planning and the diagram order both read the graph
    @cached_property
    def _clause_vars(self) -> tuple[frozenset[Variable], ...]:
        return tuple(frozenset(abs(l) for l in c) for c in self.clauses)

    @cached_property
    def _all_clause_vars(self) -> frozenset[Variable]:
        return frozenset().union(*self._clause_vars)

    @cached_property
    def _primal_graph(self) -> dict[Variable, set[Variable]]:
        # each variable's neighborhood is one union of its clauses' sets
        sets_of: dict[int, list[frozenset[int]]] = {}
        for vs in self._clause_vars:
            for v in vs:
                sets_of.setdefault(v, []).append(vs)
        adj: dict[int, set[int]] = {}
        for v, sets in sets_of.items():
            adj[v] = nbrs = set().union(*sets)
            nbrs.discard(v)
        return adj

    @property
    def quantified(self) -> frozenset[Variable]:
        return self.X | self.Y


def normalize_clause(lits) -> Clause | None:
    """Drop duplicate literals; return None for tautologies (x or not-x)."""
    seen = {}
    out = []
    for l in lits:
        v = abs(l)
        if v in seen:
            if seen[v] != l:
                return None
            continue
        seen[v] = l
        out.append(l)
    return tuple(out)


def parse_problem(text: str, free_as_exist: bool = False) -> Problem:
    """Parse ER-DIMACS text into a validated Problem.

    Variables declared in the header but never quantified and never used in a
    clause are an error unless free_as_exist is set, in which case they join
    the existential block.
    """
    num_vars = None
    num_clauses = None
    X: set[int] = set()
    Y: set[int] = set()
    pr: dict[int, float] = {}
    clauses: list[Clause] = []
    raw_clause_lines = 0  # tautologies are dropped from `clauses` but counted here

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c ") or line.startswith("c\t"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if num_vars is not None:
                raise ParseError("duplicate header", lineno)
            if len(toks) != 4 or toks[1] != "cnf":
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                num_vars = int(toks[2])
                num_clauses = int(toks[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno) from None
            if num_vars < 0 or num_clauses < 0:
                raise ParseError("negative counts in header", lineno)
            continue
        if num_vars is None:
            raise ParseError(f"{toks[0]!r} before 'p cnf' header", lineno)

        if toks[0] == "e" or toks[0] == "r":
            if raw_clause_lines:
                raise ParseError("quantifier line after clause lines", lineno)
            body = toks[1:]
            prob = None
            if toks[0] == "r":
                if not body:
                    raise ParseError("'r' line missing probability", lineno)
                try:
                    prob = float(body[0])
                except ValueError:
                    raise ParseError(f"bad probability {body[0]!r}", lineno) from None
                if not (0.0 <= prob <= 1.0):
                    raise ParseError(f"probability {prob} outside [0, 1]", lineno)
                body = body[1:]
            if not body or body[-1] != "0":
                raise ParseError("quantifier line not 0-terminated", lineno)
            for tok in body[:-1]:
                try:
                    v = int(tok)
                except ValueError:
                    raise ParseError(f"bad variable {tok!r}", lineno) from None
                if v <= 0:
                    raise ParseError(f"variable {v} must be positive", lineno)
                if v > num_vars:
                    raise ParseError(f"variable {v} beyond header count {num_vars}", lineno)
                if v in X or v in Y:
                    raise ParseError(f"variable {v} quantified twice", lineno)
                if toks[0] == "e":
                    X.add(v)
                else:
                    Y.add(v)
                    pr[v] = prob
            continue

        # clause line
        if not raw_clause_lines:  # the blocks are complete from here on
            quantified = X | Y
        raw_clause_lines += 1
        try:
            lits = list(map(int, toks))
        except ValueError:
            raise ParseError(f"bad clause token in {line!r}", lineno) from None
        if lits.pop() != 0:
            raise ParseError("clause not 0-terminated", lineno)
        vs = set(map(abs, lits))
        if len(vs) == len(lits) and vs <= quantified:
            # distinct quantified variables: no literal 0, none beyond the
            # header, and nothing for normalize_clause to drop
            clauses.append(tuple(lits))
            continue
        if any(l == 0 for l in lits):
            raise ParseError("literal 0 inside clause", lineno)
        for l in lits:
            v = abs(l)
            if v > num_vars:
                raise ParseError(f"variable {v} beyond header count {num_vars}", lineno)
            if v not in X and v not in Y:
                raise ParseError(f"variable {v} used in clause but unquantified", lineno)
        clause = normalize_clause(lits)
        if clause is not None:  # tautologies are constant-true, dropped
            clauses.append(clause)

    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if raw_clause_lines != num_clauses:
        raise ParseError(
            f"header declares {num_clauses} clauses but file has {raw_clause_lines}"
        )

    # X and Y lie within 1..num_vars, so the free variables are counted, not
    # listed: a header may declare far more variables than the file holds
    num_free = num_vars - len(X) - len(Y)
    if num_free and not free_as_exist:
        first = list(islice((v for v in range(1, num_vars + 1)
                             if v not in X and v not in Y), FREE_VARS_SHOWN))
        more = ", ..." if num_free > len(first) else ""
        raise ParseError(
            f"{num_free} unquantified unused variables "
            f"({', '.join(map(str, first))}{more}); "
            "pass --free-as-exist to treat them as existential"
        )
    # with free variables, every variable outside Y is existential
    return Problem(
        num_vars=num_vars,
        clauses=tuple(clauses),
        X=(frozenset(range(1, num_vars + 1)).difference(Y) if num_free
           else frozenset(X)),
        Y=frozenset(Y),
        pr=pr,
    )


def validate(p: Problem) -> None:
    """Check every Problem invariant; raises ValidationError listing all failures."""
    bad = []
    overlap = p.X & p.Y
    if overlap:
        bad.append(f"variables in both blocks: {sorted(overlap)}")
    outside = {v for s in (p.X, p.Y) for v in s if not 1 <= v <= p.num_vars}
    for v in sorted(outside):  # not the blocks: a header may declare millions
        bad.append(f"variable {v} outside 1..{p.num_vars}")
    unquantified = p.all_clause_vars() - p.X - p.Y
    if unquantified:
        bad.append(f"clause variables unquantified: {sorted(unquantified)}")
    if set(p.pr) != set(p.Y):
        bad.append("probability map domain differs from randomized block")
    for v, prob in sorted(p.pr.items()):
        if not (0.0 <= prob <= 1.0):
            bad.append(f"pr({v}) = {prob} outside [0, 1]")
    for i, c in enumerate(p.clauses):
        vs = [abs(l) for l in c]
        if len(vs) != len(set(vs)):
            bad.append(f"clause {i} mentions a variable twice")
    if bad:
        raise ValidationError(bad)


def serialize(p: Problem) -> str:
    """Render a Problem back to ER-DIMACS text (parses back to an equal Problem)."""
    lines = [f"p cnf {p.num_vars} {len(p.clauses)}"]
    if p.X:
        lines.append("e " + " ".join(str(v) for v in sorted(p.X)) + " 0")
    by_prob: dict[float, list[int]] = {}
    for v in sorted(p.Y):
        by_prob.setdefault(p.pr[v], []).append(v)
    for prob in sorted(by_prob):
        vs = " ".join(str(v) for v in by_prob[prob])
        lines.append(f"r {prob!r} {vs} 0")
    for c in p.clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"


def primal_graph(p: Problem) -> dict[Variable, set[Variable]]:
    """Adjacency over the clause variables, the only ones planned and
    valuated; edge iff two vars share a clause.  Built on first use and
    kept on `p`, so planning and the diagram order share one graph: its
    readers must not change it (`planner.elimination_order` eliminates on
    a copy)."""
    return p._primal_graph


def cofactor(clause: Clause, true: frozenset[int]) -> Clause | None:
    """`clause` with the literals of `true` set true: None if it holds one
    of them, else the clause without their negations, in order."""
    if not true.isdisjoint(clause):
        return None
    return tuple(l for l in clause if -l not in true) if true else clause


def condition(p: Problem, tau_x: dict[Variable, bool]) -> Problem:
    """The formula under a total existential assignment, with X = {}.

    Each clause, in order, is cofactored by the literals `tau_x` sets true
    (`cofactor`): one they satisfy is dropped, and one whose literals were
    all existential and false comes back empty.  Y and `pr` are those of
    `p`, so solving the result is weighted model counting.
    """
    if not p.X <= tau_x.keys():
        missing = p.X - tau_x.keys()
        raise ValueError(f"assignment missing existential variables {sorted(missing)}")
    # clause variables only: a header may declare millions of free variables
    true = frozenset(x if tau_x[x] else -x for x in p.X & p.all_clause_vars())
    clauses = tuple(q for c in p.clauses if (q := cofactor(c, true)) is not None)
    return Problem(num_vars=p.num_vars, clauses=clauses, X=frozenset(),
                   Y=p.Y, pr=p.pr)
