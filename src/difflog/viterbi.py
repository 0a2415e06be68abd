"""Weighted rule evaluation under the Viterbi semiring ([0,1], max, *).

Each rule carries a weight in [0,1]; a derivation tree's value is the
product of the weights of its clauses, and a tuple's value is the maximum
over its derivation trees.  Evaluation also tracks provenance: the
rule-occurrence counts of one value-maximal tree, which make the tuple
values differentiable in closed form (dv_t/dw_r = count_r(t) * v_t / w_r).

Weights are one float64 vector in rule-position order.  An evaluation is
two arrays over fact rows, and nothing else: the values, and a (facts x
fired rules) count matrix whose rows are the provenance monomials in N[X].
A rule without a ground clause never occurs in a tree, so it has no count
column (``Evaluator.fired``).  ``value_of`` and ``provenance_of`` read one
fact's row.  ``core.ground`` lays the clauses out conclusion-major, so a
round is one segmented max (see ``Evaluator``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

# boolean_fixpoint is re-exported: it is the positive support of an evaluation
from .core import (CandidateRuleSet, Database, Fact, LabelSet, Rule,
                   SemanticError, SolutionCheck, boolean_fixpoint, ground)


@dataclass(frozen=True, eq=False)
class EvaluationResult:
    """Output of one weighted evaluation, as arrays over the evaluator's fact rows.

    ``values[i]`` is the value of fact ``i``; ``counts[i, k]`` is how often
    the rule at position ``evaluator.fired[k]`` occurs in its recorded tree,
    so row ``i`` is the fact's provenance monomial.  Rules outside ``fired``
    have no column: their count is 0 in every tree.  A fact with value 0 has
    no derivation and an all-zero row, as do input facts.  The last row is
    the zero row of facts outside the grounding (``Evaluator.row_of``).
    """

    values: np.ndarray
    counts: np.ndarray
    rounds: int  # fixpoint-loop iterations executed
    evaluator: "Evaluator"

    @cached_property
    def derived(self) -> Database:
        """Derived (non-input) tuples with value > 0."""
        mask = self.values[:-1] > 0.0
        mask[self.evaluator._input_idx] = False
        return Database(self.evaluator._facts[i] for i in np.flatnonzero(mask).tolist())

    def value_of(self, t: Fact) -> float:
        return float(self.values[self.evaluator.row_of(t)])

    def provenance_of(self, t: Fact) -> dict[str, int] | None:
        """The nonzero rule counts of ``t``'s recorded tree ({} for an input
        fact), or None when ``t`` has no derivation."""
        row = self.evaluator.row_of(t)
        if not self.values[row] > 0.0:
            return None
        counts, ev = self.counts[row], self.evaluator
        return {ev.rule_ids[ev.fired[k]]: int(counts[k]) for k in np.flatnonzero(counts)}


class _Clauses(NamedTuple):
    """Clauses in ``core.ground``'s order, with each head's segment of them.

    A clause's product starts with ``w_r * u[a0]``, its rule's weight times
    its first antecedent.  ``pair`` indexes the evaluator's one table of the
    distinct (rule, first antecedent) pairs, whose products a round computes
    once and gathers into the clauses that have them.
    """

    cols: np.ndarray    # (max body length x clauses) antecedent rows
    concl: np.ndarray   # clause -> its conclusion's row
    pair: np.ndarray    # clause -> its (rule, first antecedent) pair
    heads: np.ndarray   # the conclusions, ascending
    starts: np.ndarray  # each head's first clause

    @classmethod
    def of(cls, cols: np.ndarray, concl: np.ndarray, pair: np.ndarray,
           n_facts: int) -> "_Clauses":
        sizes = np.bincount(concl, minlength=n_facts)
        heads = np.flatnonzero(sizes)
        lengths = sizes[heads]
        return cls(cols, concl, pair, heads, np.cumsum(lengths) - lengths)


def _number(ids: np.ndarray, bound: int, table_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``ids``, all below ``bound``, ascending, and each
    id's index among them: ``np.unique(ids, return_inverse=True)``.

    A dense table of ``bound`` entries numbers them without a sort; it is
    used when ``bound`` is at most ``table_limit``, and then the indexes are
    written over ``ids``, which maps no new pages for them.
    """
    if bound > table_limit:
        return np.unique(ids, return_inverse=True)
    present = np.zeros(bound, dtype=bool)
    present[ids] = True
    values = np.flatnonzero(present)
    number = np.empty(bound, dtype=np.intp)
    number[values] = np.arange(len(values))
    # take reads each id before it writes that position
    return values, number.take(ids, out=ids, mode="wrap")


class Evaluator:
    """Reusable weighted evaluator for a fixed rule set and input database.

    Grounding runs once, in the constructor: the kernel derives the Boolean
    fixpoint of all candidate rules and every ground clause over it, less
    the self-loops.  Each evaluation then runs a vectorized max-product
    fixpoint over those clauses.  ``fired`` holds the positions, in
    ``rule_ids``, of the rules with at least one ground clause; only they
    can occur in a tree, so only they get a count column, and an
    evaluation reads only their weights.  The grounding holds every clause
    that any subset of the rules can fire, so ``check`` decides a candidate
    program without grounding again.

    Clauses are taken in the order ``core.ground`` numbers them, which is
    conclusion-major: each head's clauses form one segment, and its first
    position attaining the max is the lowest-index winning clause.  Each body
    position has one antecedent column.  The evaluator owns two rows past
    the facts: the zero row of facts outside the grounding, and the pad row,
    of value 1 and zero counts, that shorter bodies point at.  Multiplying by
    1.0 is exact, so every product stays ((w * u0) * u1) * u2.

    The first round runs over the input-only clauses alone, those whose
    antecedents are all input or pad rows, kept in the same order.  This is
    exact: in round 1 only those rows are nonzero, so every other clause is
    0 and can neither raise a head nor attain a raised head's maximum.

    Both clause sets index one table of the distinct (rule, first
    antecedent) pairs.  A round multiplies every pair once and gathers the
    products into its own set's clauses (``_Clauses``); it is the same
    multiply, so every value is bitwise what a per-clause product gives.  The
    fixpoint stops after a round that changes only facts that no clause
    reads, counting the round it skips, which would change nothing.

    The evaluator owns its scratch, the pair weights (filled once per
    evaluation) and products, the clause products, one antecedent column and
    the winner mask, and every evaluation reuses it, so a call allocates
    nothing clause-sized.  One evaluator runs one evaluation at a time.
    """

    def __init__(self, rules: CandidateRuleSet | Iterable[Rule], input: Database,
                 output_relations: Iterable[str] | None = None):
        if not isinstance(rules, CandidateRuleSet):
            rules = CandidateRuleSet(rules)
        self.rules = rules
        self.input = input
        self.rule_ids = tuple(rules.ids())
        if output_relations is None:
            output_relations = {r.head.relation for r in rules}
        self.output_relations = frozenset(output_relations)

        grounding = ground(rules, input)
        self._facts = grounding.facts
        self._input_idx = grounding.input_idx
        self.derivable_count = len(grounding.facts) - len(grounding.input_idx)
        n_facts, concl = len(self._facts), grounding.concl
        fires = np.bincount(grounding.rule, minlength=len(self.rule_ids)) > 0
        self.fired = np.flatnonzero(fires)
        # the grounding is this evaluator's own, so its pads take the pad row in
        # place; a pool without clauses gets one empty antecedent column
        cols = grounding.cols if len(grounding.cols) else np.empty((1, 0), dtype=np.intp)
        cols[cols < 0] = n_facts + 1
        # a clause's pair key is its rule's count column (the rank among the
        # fired rules) times the rows, plus its first antecedent's row
        n_rows = n_facts + 2
        key = (np.cumsum(fires) - 1)[grounding.rule]
        key *= n_rows
        key += cols[0]
        # the table over the keys may be as large as the antecedent columns
        keys, pair = _number(key, len(self.fired) * n_rows, cols.size)
        self._pair_rule, self._pair_row = np.divmod(keys, n_rows)
        self._clauses = _Clauses.of(cols, concl, pair, n_facts)
        known = np.zeros(n_rows, dtype=bool)
        known[self._input_idx] = known[-1] = True
        first = known[cols].all(axis=0)
        self._first_round = _Clauses.of(cols[:, first], concl[first], pair[first], n_facts)
        self._read = np.zeros(n_rows, dtype=bool)
        self._read[cols] = True  # the rows that some clause reads
        # pair weights, first antecedents and products; clause products, one
        # antecedent column and winners, of which the first round uses a prefix
        self._pair_scratch = np.empty((3, len(keys)))
        self._scratch = np.empty((2, len(concl)))
        self._hit = np.empty(len(concl), dtype=bool)
        self._row = {f: i for i, f in enumerate(self._facts)}
        self._labels: dict[LabelSet, tuple[list[Fact], np.ndarray, int]] = {}

    def row_of(self, t: Fact) -> int:
        """The result row of ``t``; a fact outside the grounding has the zero row."""
        return self._row.get(t, len(self._facts))

    def _label_index(self, labels: LabelSet) -> tuple[list[Fact], np.ndarray, int]:
        """The sorted positives, then the negatives inside the grounding in
        row order, their result rows, and the number of positives; computed
        once per label set.

        A negative outside the grounding reads the zero row at every weight
        vector, so it adds nothing to the loss, its gradient or a check, and
        is left out.  Rows follow the sorted ``Grounding.facts``, so the
        negatives kept are in sorted order too.
        """
        index = self._labels.get(labels)
        if index is None:
            positive = sorted(labels.positive)
            negative = sorted(i for i in map(self._row.get, labels.negative) if i is not None)
            rows = np.array([*map(self.row_of, positive), *negative], dtype=np.int64)
            index = ([*positive, *(self._facts[i] for i in negative)], rows, len(positive))
            self._labels[labels] = index
        return index

    def label_rows(self, labels: LabelSet) -> tuple[np.ndarray, int]:
        """The result rows of the sorted positives, then of the negatives
        inside the grounding in sorted order, and the number of positives.
        Negatives outside the grounding, of value 0 at every weight vector,
        have no row here."""
        _, rows, n_positive = self._label_index(labels)
        return rows, n_positive

    def _weight_vector(self, w: np.ndarray | Mapping[str, float]) -> np.ndarray:
        if isinstance(w, Mapping):
            missing = [rid for rid in self.rule_ids if rid not in w]
            if missing:
                raise SemanticError(f"weights missing for rules: {missing}")
            w = [w[rid] for rid in self.rule_ids]
        wv = np.asarray(w, dtype=np.float64)
        if wv.shape != (len(self.rule_ids),):
            raise ValueError(f"expected {len(self.rule_ids)} weights, got shape {wv.shape}")
        inside = (wv >= 0.0) & (wv <= 1.0)
        if not inside.all():
            r = int(np.argmin(inside))
            raise ValueError(f"weight for {self.rule_ids[r]} is not in [0, 1]: {wv[r]}")
        return wv

    def evaluate(self, w: np.ndarray | Mapping[str, float]) -> EvaluationResult:
        """Evaluate at weights ``w``: a vector in rule-position order or a rule-id map.

        A map must give a weight for every rule id (SemanticError); a vector
        of the wrong length or a weight outside [0, 1], NaN included, raises
        ValueError.  Only the weights of the ``fired`` rules are read.
        """
        return self._fixpoint(self._weight_vector(w)[self.fired])

    def check(self, rule_ids: Iterable[str], labels: LabelSet) -> SolutionCheck:
        """``core.check_solution`` of the program ``rule_ids``, read off this grounding.

        At the program's 0/1 weight vector a fact has value 1 exactly when the
        program derives it (acceptance criterion 2), so a positive label of
        value 0 is missing and a negative label of value > 0 is spurious.  A
        positive outside the grounding reads the zero row, and a negative
        outside it is never derived.  Input facts count as not derived, as in
        ``core.boolean_fixpoint``.
        """
        chosen = set(rule_ids)
        unknown = chosen.difference(self.rule_ids)
        if unknown:
            raise SemanticError(f"unknown rule ids: {sorted(unknown)}")
        w = np.array([self.rule_ids[r] in chosen for r in self.fired.tolist()], dtype=np.float64)
        derived = self._fixpoint(w).values > 0.0
        derived[self._input_idx] = False
        ordered, rows, n_positive = self._label_index(labels)
        hit = derived[rows]
        missing = frozenset(ordered[i] for i in np.flatnonzero(~hit[:n_positive]).tolist())
        spurious = frozenset(ordered[n_positive + i]
                             for i in np.flatnonzero(hit[n_positive:]).tolist())
        return SolutionCheck(not missing and not spurious, missing, spurious)

    def _fixpoint(self, wf: np.ndarray) -> EvaluationResult:
        """The max-product fixpoint at ``wf``, the weights of the ``fired`` rules."""
        # rows: the facts, the zero row of facts outside the grounding, the pad row
        u = np.zeros(len(self._facts) + 2)
        u[self._input_idx] = u[-1] = 1.0
        counts = np.zeros((len(u), len(self.fired)), dtype=np.int64)
        weights, first, products = self._pair_scratch
        wf.take(self._pair_rule, out=weights)
        for rounds in itertools.count(1):
            # round 1 reads only the input and pad rows, so it runs over the input-only clauses
            c = self._first_round if rounds == 1 else self._clauses
            vals, antecedent = self._scratch[:, :len(c.pair)]
            # ((w * u0) * u1) * u2: weight first, antecedents left to right, pads
            # last; w * u0 once per (rule, first antecedent) pair
            np.multiply(weights, u.take(self._pair_row, out=first, mode="wrap"), out=products)
            products.take(c.pair, out=vals, mode="wrap")
            for col in c.cols[1:]:
                np.multiply(vals, u.take(col, out=antecedent, mode="wrap"), out=vals)
            best = np.maximum.reduceat(vals, c.starts)
            changed = best > u[c.heads]
            if not changed.any():
                break
            facts = c.heads[changed]
            u[facts] = best[changed]
            # a changed head's winner: the first position in its segment attaining
            # its new value; the segments of unchanged heads are not searched
            hit = self._hit[:len(c.pair)]
            np.equal(vals, u.take(c.concl, out=antecedent, mode="wrap"), out=hit)
            attain = np.flatnonzero(hit)
            wins = attain[np.searchsorted(attain, c.starts[changed])]
            # a winner's row: its rule once, plus its antecedents' rows of the last round
            rows = np.zeros((len(facts), len(self.fired)), dtype=np.int64)
            rows[np.arange(len(facts)), self._pair_rule[c.pair[wins]]] = 1
            for col in c.cols:
                rows += counts[col[wins]]
            counts[facts] = rows
            if not self._read[facts].any():
                # no clause reads a changed fact, so the next round changes nothing: count it
                rounds += 1
                break
        return EvaluationResult(u[:-1], counts[:-1], rounds, self)


def gradient(result: EvaluationResult, w: Mapping[str, float], t: Fact) -> dict[str, float]:
    """Partial derivatives of the tuple value with respect to each rule weight."""
    ev = result.evaluator
    if t.relation not in ev.output_relations:
        raise SemanticError(f"{t} is not an output-relation tuple of this problem")
    row = ev.row_of(t)
    counts, v = result.counts[row].tolist(), float(result.values[row])
    # a count of 0 gives derivative 0, also at weight 0: a rule outside the tree,
    # a rule that never fires, or any rule of a tuple without a derivation
    grad = dict.fromkeys(ev.rule_ids, 0.0)
    for r, c in zip(ev.fired.tolist(), counts):
        if c:
            rid = ev.rule_ids[r]
            grad[rid] = c * v / w[rid]
    return grad
