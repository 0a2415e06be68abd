"""Weighted rule evaluation under the Viterbi semiring ([0,1], max, *).

Each rule carries a weight in [0,1]; a derivation tree's value is the
product of the weights of its clauses, and a tuple's value is the maximum
over its derivation trees.  Evaluation also tracks provenance: the
rule-occurrence counts of one value-maximal tree, which make the tuple
values differentiable in closed form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

# boolean_fixpoint is re-exported: it is the positive support of an evaluation
from .core import (CandidateRuleSet, Database, Fact, Rule, SemanticError,
                   boolean_fixpoint, ground)


class WeightVector(Mapping):
    """An immutable rule_id -> weight map with weights in [0, 1]."""

    __slots__ = ("_weights",)

    def __init__(self, weights: Mapping[str, float]):
        for rid, w in weights.items():
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weight for {rid} out of [0,1]: {w}")
        self._weights = dict(weights)

    def __getitem__(self, rule_id):
        return self._weights[rule_id]

    def __iter__(self):
        return iter(self._weights)

    def __len__(self):
        return len(self._weights)

    def clamped(self, eps: float = 1e-6) -> "WeightVector":
        """Weights pushed into [eps, 1-eps] so w_r never divides to zero."""
        return WeightVector({r: min(max(w, eps), 1.0 - eps) for r, w in self._weights.items()})

    def replace(self, updates: Mapping[str, float]) -> "WeightVector":
        merged = dict(self._weights)
        merged.update(updates)
        return WeightVector(merged)

    def __repr__(self):
        return f"WeightVector({self._weights!r})"


class Provenance:
    """Rule-occurrence counts of one value-maximal derivation tree.

    A tuple with no derivation has the distinguished undefined provenance
    (an explicit marker, never a numeric sentinel).  Input tuples have
    all-zero counts.
    """

    __slots__ = ("_counts", "_defined")

    def __init__(self, counts: Mapping[str, int] | None):
        if counts is None:
            self._counts = None
            self._defined = False
        else:
            self._counts = {r: int(c) for r, c in counts.items() if c}
            self._defined = True

    _UNDEFINED = None

    @classmethod
    def undefined(cls) -> "Provenance":
        if cls._UNDEFINED is None:
            cls._UNDEFINED = cls(None)
        return cls._UNDEFINED

    @property
    def defined(self) -> bool:
        return self._defined

    @property
    def counts(self) -> Mapping[str, int]:
        if not self._defined:
            raise ValueError("no derivation: provenance is undefined")
        return dict(self._counts)

    def count(self, rule_id: str) -> int:
        if not self._defined:
            raise ValueError("no derivation: provenance is undefined")
        return self._counts.get(rule_id, 0)

    def rules(self) -> frozenset[str]:
        """Rules used at least once in the recorded tree."""
        if not self._defined:
            raise ValueError("no derivation: provenance is undefined")
        return frozenset(self._counts)

    def __eq__(self, other):
        return (isinstance(other, Provenance)
                and self._defined == other._defined and self._counts == other._counts)

    def __hash__(self):
        return hash(None if self._counts is None else tuple(sorted(self._counts.items())))

    def __repr__(self):
        if not self._defined:
            return "Provenance(undefined)"
        return f"Provenance({self._counts!r})"


_ZERO_COUNTS = Counter()


@dataclass(frozen=True)
class EvaluationResult:
    """Output of one weighted evaluation: derived tuples, values, provenance."""

    derived: Database                      # derived output tuples with value > 0
    value: Mapping[Fact, float]            # inputs at 1.0 plus derived tuples
    provenance: Mapping[Fact, Provenance]
    rounds: int                            # fixpoint-loop iterations executed
    output_relations: frozenset[str]
    rule_ids: tuple[str, ...]

    def value_of(self, t: Fact) -> float:
        return self.value.get(t, 0.0)

    def provenance_of(self, t: Fact) -> Provenance:
        return self.provenance.get(t, Provenance.undefined())


class Evaluator:
    """Reusable weighted evaluator for a fixed rule set and input database.

    Grounding runs once, in the constructor: the kernel derives the Boolean
    fixpoint of all candidate rules and every ground clause over it.
    Repeated evaluations at different weights then run a vectorized
    max-product fixpoint over the fixed clause set.
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
        self._concl = grounding.concl
        self._crule = grounding.crule
        # clauses grouped by body length for vectorized products; each
        # clause's group and row there locate its antecedents
        self._groups = grounding.groups
        n = len(grounding)
        self._cgroup = np.empty(n, dtype=np.int64)
        self._crow = np.empty(n, dtype=np.int64)
        for g, (pos, _) in enumerate(self._groups):
            self._cgroup[pos] = g
            self._crow[pos] = np.arange(len(pos))

    def evaluate(self, w: Mapping[str, float]) -> EvaluationResult:
        missing = [rid for rid in self.rule_ids if rid not in w]
        if missing:
            raise SemanticError(f"weights missing for rules: {missing}")
        wv = np.array([w[rid] for rid in self.rule_ids], dtype=np.float64)

        n_facts = len(self._facts)
        n_clauses = len(self._concl)
        u = np.zeros(n_facts)
        u[self._input_idx] = 1.0
        prov: dict[int, Counter] = {int(i): _ZERO_COUNTS for i in self._input_idx}

        vals = np.empty(n_clauses)
        rounds = 0
        while True:
            rounds += 1
            for pos, ante in self._groups:
                group_vals = wv[self._crule[pos]]
                for j in range(ante.shape[1]):
                    group_vals = group_vals * u[ante[:, j]]
                vals[pos] = group_vals
            best = u.copy()
            np.maximum.at(best, self._concl, vals)
            changed = best > u
            if not changed.any():
                break
            attain = (vals == best[self._concl]) & changed[self._concl]
            winner = np.full(n_facts, n_clauses, dtype=np.int64)
            np.minimum.at(winner, self._concl[attain],
                          np.nonzero(attain)[0])
            new_prov: dict[int, Counter] = {}
            facts = np.nonzero(changed)[0]
            wins = winner[facts]
            groups = self._cgroup[wins]
            for g, (_, ante) in enumerate(self._groups):
                mine = groups == g
                won = wins[mine]
                for fi, r, ants in zip(facts[mine].tolist(), self._crule[won].tolist(),
                                       ante[self._crow[won]].tolist()):
                    counts = Counter({self.rule_ids[r]: 1})
                    for a in ants:
                        counts.update(prov[a])
                    new_prov[fi] = counts
            prov.update(new_prov)
            u = best

        value: dict[Fact, float] = {}
        provenance: dict[Fact, Provenance] = {}
        derived: list[Fact] = []
        input_set = set(int(i) for i in self._input_idx)
        for i, fact in enumerate(self._facts):
            if i in input_set:
                value[fact] = 1.0
                provenance[fact] = Provenance(_ZERO_COUNTS)
            elif u[i] > 0.0:
                value[fact] = float(u[i])
                provenance[fact] = Provenance(prov[i])
                derived.append(fact)
        return EvaluationResult(Database(derived), value, provenance, rounds,
                                self.output_relations, self.rule_ids)


def evaluate(rules: CandidateRuleSet | Iterable[Rule], w: Mapping[str, float],
             input: Database) -> EvaluationResult:
    """One-shot weighted evaluation (see Evaluator for the repeated-use path)."""
    return Evaluator(rules, input).evaluate(w)


def gradient(result: EvaluationResult, w: Mapping[str, float], t: Fact) -> dict[str, float]:
    """Partial derivatives of the tuple value with respect to each rule weight."""
    if t.relation not in result.output_relations:
        raise SemanticError(f"{t} is not an output-relation tuple of this problem")
    prov = result.provenance_of(t)
    if not prov.defined:
        return {rid: 0.0 for rid in result.rule_ids}
    v = result.value_of(t)
    return {rid: prov.count(rid) * v / w[rid] for rid in result.rule_ids}


def support(w: Mapping[str, float], threshold: float = 0.0) -> frozenset[str]:
    """Rules whose weight strictly exceeds the threshold."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1): {threshold}")
    return frozenset(r for r, v in w.items() if v > threshold)
