"""Tests for the shared IVC transaction engine (repro.core.ivc).

The property tests pin the two guarantees every pass now relies on:

* a rolled-back round restores the tree bit-for-bit -- content, topology
  *and* journal revisions, so the evaluator's stage cache still recognises
  every stage of the restored tree (cache identity);
* a candidate that violates a constraint is *always* rolled back, whatever
  mutations the proposal applied.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluatorConfig
from repro.core.ivc import (
    REASON_NO_IMPROVEMENT,
    REASON_SLEW,
    IvcEngine,
    Transaction,
    default_constraints,
    ivc_round,
)
from repro.cts import ispd09_buffer_library, ispd09_wire_library
from repro.testing import make_manual_tree, make_zst_tree, tree_fingerprint


def fresh_evaluator(**overrides) -> ClockNetworkEvaluator:
    # The unit trees are unbuffered, so their tap slews are huge; a generous
    # default limit keeps the slew constraint out of tests that target the
    # objective triage (tests of the constraint path override it down).
    config = dict(engine="elmore", slew_limit=1e6)
    config.update(overrides)
    return ClockNetworkEvaluator(config=EvaluatorConfig(**config))


def edge_ids(tree):
    return [n.node_id for n in tree.nodes() if n.parent is not None]


class TestTransaction:
    def test_commit_keeps_mutations(self):
        tree = make_manual_tree()
        target = edge_ids(tree)[0]
        with Transaction(tree):
            tree.add_snake(target, 42.0)
        assert tree.node(target).snake_length == 42.0

    def test_rollback_restores_mutations(self):
        tree = make_manual_tree()
        before = tree_fingerprint(tree)
        target = edge_ids(tree)[0]
        with Transaction(tree) as txn:
            tree.add_snake(target, 42.0)
            txn.rollback()
        assert tree_fingerprint(tree) == before

    def test_exception_rolls_back(self):
        tree = make_manual_tree()
        before = tree_fingerprint(tree)
        with pytest.raises(RuntimeError):
            with Transaction(tree):
                tree.add_snake(edge_ids(tree)[0], 10.0)
                raise RuntimeError("boom")
        assert tree_fingerprint(tree) == before

    def test_subtree_removal_rolls_back_fully_linked(self):
        # Regression: the subtree root's pre-image must be journaled while it
        # still points at its parent, or rollback resurrects it half-detached.
        tree = make_manual_tree()
        hub = tree.root.children[0]
        before = tree_fingerprint(tree)
        with Transaction(tree) as txn:
            tree.remove_subtree(hub)
            txn.rollback()
        assert tree_fingerprint(tree) == before
        assert tree.node(hub).parent == tree.root_id
        tree.validate()

    def test_structural_surgery_rolls_back(self):
        tree = make_manual_tree()
        buffers = ispd09_buffer_library()
        before = tree_fingerprint(tree)
        with Transaction(tree) as txn:
            new_node = tree.split_edge(edge_ids(tree)[0], 0.5)
            tree.place_buffer(new_node, buffers.smallest)
            tree.remove_buffer(new_node)
            txn.rollback()
        assert tree_fingerprint(tree) == before
        tree.validate()


class TestIvcRound:
    def test_accepting_round_commits_and_reports(self):
        tree = make_zst_tree(10)
        evaluator = fresh_evaluator()
        baseline = evaluator.evaluate(tree)
        # Comparing against +inf forces the objective check to pass, so the
        # round exercises the commit path.
        target = edge_ids(tree)[0]
        outcome = ivc_round(
            tree,
            evaluator,
            lambda: (tree.add_snake(target, 5.0), 1)[1],
            objective="skew",
            best_objective=float("inf"),
        )
        assert outcome.accepted and outcome.changed == 1
        assert outcome.report is not None
        assert tree.node(target).snake_length == 5.0
        assert outcome.report.evaluation_index > baseline.evaluation_index

    def test_empty_round_spends_no_evaluation(self):
        tree = make_zst_tree(10)
        evaluator = fresh_evaluator()
        runs_before = evaluator.run_count
        outcome = ivc_round(
            tree, evaluator, lambda: 0, objective="skew", best_objective=0.0
        )
        assert not outcome.accepted and outcome.report is None
        assert evaluator.run_count == runs_before

    def test_no_improvement_is_rolled_back(self):
        tree = make_zst_tree(10)
        evaluator = fresh_evaluator()
        before = tree_fingerprint(tree)
        target = edge_ids(tree)[0]
        outcome = ivc_round(
            tree,
            evaluator,
            lambda: (tree.add_snake(target, 5.0), 1)[1],
            objective="skew",
            best_objective=float("-inf"),  # nothing can improve on -inf
        )
        assert not outcome.accepted
        assert outcome.reason == REASON_NO_IMPROVEMENT
        assert tree_fingerprint(tree) == before

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), moves=st.integers(1, 8))
    def test_rollback_restores_tree_hash(self, seed, moves):
        """Property: whatever a rejected proposal did, rollback undoes it."""
        import random

        tree = make_zst_tree(12, seed=3)
        wirelib = ispd09_wire_library()
        buffers = ispd09_buffer_library()
        evaluator = fresh_evaluator()
        before = tree_fingerprint(tree)

        def mutate() -> int:
            rng = random.Random(seed)
            ids = edge_ids(tree)
            for _ in range(moves):
                node_id = rng.choice(ids)
                action = rng.randrange(4)
                if action == 0:
                    tree.add_snake(node_id, rng.uniform(1.0, 80.0))
                elif action == 1:
                    tree.set_wire_type(node_id, rng.choice(list(wirelib)))
                elif action == 2:
                    tree.place_buffer(node_id, buffers.smallest.parallel(rng.choice((1, 2, 4))))
                else:
                    split = tree.split_edge(node_id, rng.uniform(0.2, 0.8))
                    ids.append(split)
            return moves

        outcome = ivc_round(
            tree,
            evaluator,
            mutate,
            objective="skew",
            best_objective=float("-inf"),  # force the no-improvement rejection
        )
        assert not outcome.accepted
        assert tree_fingerprint(tree) == before
        tree.validate()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_constraint_violations_always_roll_back(self, seed):
        """Property: a constraint-violating candidate never survives."""
        import random

        tree = make_zst_tree(12, seed=5)
        evaluator = fresh_evaluator(slew_limit=1e-3)  # everything violates slew
        before = tree_fingerprint(tree)

        def mutate() -> int:
            rng = random.Random(seed)
            for node_id in rng.sample(edge_ids(tree), 3):
                tree.add_snake(node_id, rng.uniform(10.0, 200.0))
            return 3

        outcome = ivc_round(
            tree,
            evaluator,
            mutate,
            objective="skew",
            best_objective=float("inf"),
            constraints=default_constraints,
        )
        assert not outcome.accepted
        assert outcome.reason == REASON_SLEW
        assert tree_fingerprint(tree) == before

    def test_rollback_preserves_evaluator_cache_identity(self):
        """After a rejected round, re-evaluating costs only cache hits."""
        tree = make_zst_tree(16)
        evaluator = fresh_evaluator()
        baseline = evaluator.evaluate(tree)
        target = edge_ids(tree)[0]
        outcome = ivc_round(
            tree,
            evaluator,
            lambda: (tree.add_snake(target, 5.0), 1)[1],
            objective="skew",
            best_objective=float("-inf"),  # force rejection
        )
        assert not outcome.accepted
        stats_before = evaluator.cache_stats()
        again = evaluator.evaluate(tree)
        stats_after = evaluator.cache_stats()
        # The rolled-back tree is content-identical to the baseline: every
        # stage must come from the cache, with zero new analyses.
        assert stats_after["misses"] == stats_before["misses"]
        assert stats_after["hits"] > stats_before["hits"]
        assert again.skew == baseline.skew
        assert again.clr == baseline.clr


class TestIvcEngine:
    def test_engine_reuses_baseline_without_reevaluating(self):
        tree = make_zst_tree(10)
        evaluator = fresh_evaluator()
        baseline = evaluator.evaluate(tree)
        runs = evaluator.run_count
        engine = IvcEngine("t", tree, evaluator, objective="skew", baseline=baseline)
        assert engine.report is baseline
        assert evaluator.run_count == runs

    def test_abort_produces_closed_result(self):
        tree = make_zst_tree(10)
        evaluator = fresh_evaluator()
        engine = IvcEngine("t", tree, evaluator, objective="skew")
        result = engine.abort("nothing to do")
        assert result.notes == ["nothing to do"]
        assert result.final_report is engine.report
        assert not result.improved

    def test_retry_halves_aggressiveness_and_stops_after_three(self):
        tree = make_zst_tree(10)
        evaluator = fresh_evaluator()
        engine = IvcEngine("t", tree, evaluator, objective="skew")
        seen = []
        target = edge_ids(tree)[0]

        def propose(state):
            seen.append(round(state.aggressiveness, 6))
            tree.add_snake(target, 1.0)
            return 1

        result = engine.run(propose, max_rounds=10)
        # Snaking an edge of a zero-skew tree cannot improve skew, so every
        # round is rejected; three consecutive rejections stop the loop.
        assert seen == [1.0, 0.5, 0.25]
        assert result.rounds == 0 and not result.improved
        assert len(result.notes) == 3
        assert all("rejected" in note for note in result.notes)

    def test_vacuous_round_appends_empty_note_and_stops(self):
        tree = make_zst_tree(10)
        evaluator = fresh_evaluator()
        engine = IvcEngine("t", tree, evaluator, objective="skew")
        calls = []

        def propose(state):
            calls.append(state.iteration)
            return 0

        runs = evaluator.run_count
        result = engine.run(propose, max_rounds=3, empty_note="nothing to do")
        assert calls == [1]
        assert result.notes == ["nothing to do"]
        assert result.rounds == 0 and not result.improved
        assert evaluator.run_count == runs

    def test_custom_reject_note_includes_iteration(self):
        tree = make_zst_tree(10)
        evaluator = fresh_evaluator()
        engine = IvcEngine("t", tree, evaluator, objective="skew")
        target = edge_ids(tree)[0]
        result = engine.run(
            lambda state: (tree.add_snake(target, 1.0), 1)[1],
            max_rounds=5,
            max_consecutive_rejections=1,
            reject_note="iteration {iteration} rejected: {reason}",
        )
        assert result.notes == ["iteration 1 rejected: no improvement"]
