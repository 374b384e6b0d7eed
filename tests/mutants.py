"""A catalogue of planted mutants, each of which the named tests must catch.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # some of them

Each entry names a file under `src/tgr`, an exact snippet of it, the text
that replaces the snippet, and the tests that must fail once it is in place.
For each mutant the runner copies `src` and `tests` to a temporary
directory, applies the mutant there and runs the named tests with pytest in
a subprocess, once under each of the string-hash seeds `HASH_SEEDS`.  It
fails if a snippet no longer occurs exactly once in its file, so the
catalogue cannot rot silently, or if a named test still passes under either
seed, so no test can lose a mutant it caught, nor catch one only by the
iteration order of a set.  The repository itself is
never edited.  Standard library only, apart from the pytest it starts; not
part of the tier-1 suite, since each mutant costs a pytest run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
HASH_SEEDS = ("0", "1")  # PYTHONHASHSEED values each named test runs under


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/tgr
    before: str
    after: str
    catches: Tuple[str, ...]  # pytest ids, relative to the repository root
    why: str


CUTS = "tests/test_parallel.py::test_cut_graphs_match_the_string_trie"
REFERENCE = "tests/test_parallel.py::test_cuts_match_the_reference"

MUTANTS: List[Mutant] = [
    Mutant(
        "right-of-spine-bound",
        "parallel.py",
        "kids.append((s, bound - 1, left if 0 < left < c else 0))",
        "kids.append((s, bound - 1 + (left <= 0 < state[2]), "
        "left if 0 < left < c else 0))",
        (CUTS,),
        "right of the last kept member's path, members of remaining length "
        "L - |u| are kept instead of those up to L - |u| - 1",
    ),
    Mutant(
        "state-memo-by-node",
        "parallel.py",
        "self._states: Dict[Tuple[NodeId, int, int], NodeId] = {}",
        'self._states = type("ByNode", (dict,), {'
        '"__contains__": lambda d, k: dict.__contains__(d, k[0]), '
        '"__getitem__": lambda d, k: dict.__getitem__(d, k[0]), '
        '"__setitem__": lambda d, k, v: dict.__setitem__(d, k[0], v)})()',
        (CUTS, REFERENCE),
        "a cut state's node is memoised by its carrier node alone",
    ),
    Mutant(
        "distance-prune-off-by-one",
        "parallel.py",
        "if not left and dist.get(here, bound) >= bound:",
        "if not left and dist.get(here, bound) >= bound - 1:",
        (CUTS, REFERENCE),
        "a state is cut to its past node while it still keeps the members "
        "one shorter than its bound",
    ),
    Mutant(
        "unrank-without-offset",
        "graphs.py",
        "return r, k - below[r]",
        "return r, k",
        (
            CUTS,
            "tests/test_parallel.py::test_unranked_members_are_the_enumeration",
        ),
        "the rank within a length forgets the members of shorter lengths",
    ),
    Mutant(
        "hash-cons-by-node",
        "parallel.py",
        "nid = self._shared.get((m, ss))",
        "nid = self._shared.get((m, ss)) or next(\n"
        "            (n for (k, _), n in self._shared.items() if k == m), None\n"
        "        )",
        (CUTS, REFERENCE),
        "the hash-cons key ignores the successor nodes",
    ),
]


ONE_TABLE = (CUTS, REFERENCE)
MUTANTS += [
    Mutant(
        "developed-point-unresolved",
        "parallel.py",
        "end = resolved.get(point, point)",
        "end = point",
        ONE_TABLE,
        "a sample's development is read at its point, not where a "
        "collapsing redex there resolved to",
    ),
    Mutant(
        "table-kept-across-a-doubling",
        "parallel.py",
        "if cuts.chain is None or cuts.chain[0] != len(cuts.labels):",
        "if cuts.chain is None:",
        ONE_TABLE,
        "the table term and its development are not rebuilt once the "
        "table has grown, as it does between incremental `_cut_graph` calls",
    ),
    Mutant(
        "holes-of-the-first-sample",
        "parallel.py",
        "frozenset(cuts.holes), names)",
        "frozenset(cuts.holes & graph.reachable(cuts.past[rs.start])), names)",
        (CUTS,),
        "every view gets the holes the first sample (nothing kept) reaches, "
        "not the table's",
    ),
    Mutant(
        "reflexive-skip-ignores-holes",
        "graphs.py",
        "same = ga is gb and a.bottoms == b.bottoms and a.var_names == b.var_names",
        "same = ga is gb and a.var_names == b.var_names",
        (
            "tests/test_graphs.py::"
            "test_reflexive_pairs_are_skipped_only_between_like_views",
        ),
        "pairs (x, x) are skipped between views of one graph whose holes "
        "differ",
    ),
    Mutant(
        "trie-walk-without-end-check",
        "parallel.py",
        "if st is None or at[st] != target:",
        "if st is None:",
        ("tests/test_parallel.py::test_the_trie_walk_tests_membership",),
        "a supplied occurrence that walks off the target is taken as a member",
    ),
]


MESSAGES = "tests/test_parsing_cli.py::test_parse_error_messages"
MUTANTS += [
    Mutant(
        "reader-skips-arity",
        "terms.py",
        "if len(args) != sig.arity(name):",
        "if False:",
        (
            "tests/test_terms.py::test_parse_errors",
            MESSAGES + "[rule-arity]",
            MESSAGES + "[arity-at-the-operator]",
        ),
        "a declared operator reads with any number of arguments",
    ),
    Mutant(
        "tokenizer-stops-counting-lines",
        "terms.py",
        'for line, chars in enumerate(text.split("\\n"), 1):',
        "for line, chars in enumerate([text], 1):",
        (
            "tests/test_parsing_cli.py::test_parse_error_carries_line_numbers",
            MESSAGES + "[undeclared-operator]",
            MESSAGES + "[two-lines]",
            "tests/test_terms.py::test_literals_are_tokenized_as_workspaces_are",
        ),
        "every token is on line 1: newlines in whitespace and after "
        "comments are not counted",
    ),
    Mutant(
        "duplicate-node-kept",
        "parsing.py",
        "if node in nodes:",
        "if False:",
        (
            "tests/test_parsing_cli.py::test_parse_error_cases",
            MESSAGES + "[duplicate-node]",
        ),
        "a node declared twice keeps its last declaration",
    ),
    Mutant(
        "symbolic-leg-to-depth",
        "harness.py",
        "symbolic_ok = after == report.symbolic_limit",
        "symbolic_ok = truncated_equal(after, report.symbolic_limit, depth)",
        (
            "tests/test_harness.py::"
            "test_a_step_that_does_nothing_fails_below_the_depth",
        ),
        "the step's result is compared with the symbolic development only "
        "to the chain leg's depth",
    ),
    Mutant(
        "limit-check-dropped",
        "parallel.py",
        "if not truncated_equal(limit, symbolic, eff_depth):",
        "if False:",
        (
            "tests/test_harness.py::"
            "test_a_crippled_threshold_raises_convergence_error",
            CUTS,
        ),
        "the oracle returns a chain limit that disagrees with the symbolic "
        "limit to the effective depth",
    ),
    Mutant(
        "cofinality-leg-truncated",
        "harness.py",
        "if current != one_shot:",
        "if not truncated_equal(current, one_shot, 16):",
        (
            "tests/test_harness.py::"
            "test_cofinality_step_sees_a_difference_below_depth_16",
        ),
        "the sequential result is compared with the simultaneous "
        "development only to depth 16",
    ),
]


GRAPHS = "tests/test_graphs.py::"
BRUTE_FORCE = GRAPHS + "test_occurrences_to_against_brute_force"
REDEX_SETS = "tests/test_parallel.py::test_redex_sets_against_brute_force"
MUTANTS += [
    Mutant(
        "path-prune-strict",
        "graphs.py",
        "if s in dist and dist[s] <= room",
        "if s in dist and dist[s] < room",
        (
            GRAPHS + "test_paths_to_length_lex",
            BRUTE_FORCE,
            GRAPHS + "test_count_paths_against_enumeration",
            REDEX_SETS,
        ),
        "the path walk drops a successor whose shortest path to a target "
        "uses up exactly the length left",
    ),
    Mutant(
        "distance-walk-one-level",
        "graphs.py",
        "for s in order:",
        "for s in list(order):",
        (
            BRUTE_FORCE,
            "tests/test_parallel.py::test_find_redexes_matches_the_per_node_walks",
            CUTS,
            "tests/test_parallel.py::test_unranked_members_are_the_enumeration",
        ),
        "the backward distance walk stops after the targets' predecessors, "
        "so nodes farther from a target look unable to reach one",
    ),
]


PEEL = (
    GRAPHS + "test_infinitely_reached_against_closed_paths",
    "tests/test_rules.py::test_infinite_copying_is_a_variable_below_a_cycle",
    REDEX_SETS,
    "tests/test_cli_corpus.py::test_cli_output_matches_the_golden_corpus",
)
MINIMIZE = GRAPHS + "test_class_map_minimize_matches_the_reference"
TERMGRAPH_OF = GRAPHS + "test_termgraph_of_matches_the_reference"
MUTANTS += [
    Mutant(
        "peel-stops-at-the-start",
        "graphs.py",
        "if not indeg[s]:",
        "if False:",
        PEEL,
        "the in-degree peel strips nothing past the nodes it starts from",
    ),
    Mutant(
        "peel-keeps-only-cycles",
        "graphs.py",
        "return frozenset(indeg)",
        "return frozenset(n for n in indeg "
        "if any(n in g.reachable(s) for s in g.successors(n)))",
        PEEL,
        "the nodes below a cycle are left out, only those on one kept",
    ),
    Mutant(
        "hopcroft-queued-block-loses-a-half",
        "graphs.py",
        "if not queued[t] and len(blocks[t]) < len(part):",
        "if len(blocks[t]) < len(part):",
        (MINIMIZE,),
        "a split block already queued has only its smaller half queued, "
        "so its larger half is lost",
    ),
    Mutant(
        "hopcroft-blocks-without-arity",
        "graphs.py",
        "b = keys.setdefault((cls[n], len(succ.get(n, ()))), len(keys))",
        "b = keys.setdefault(cls[n], len(keys))",
        (
            MINIMIZE,
            GRAPHS + "test_minimize_classes_are_the_pointed_bisimulation_classes",
        ),
        "the initial blocks are keyed by class alone, not by successor count",
    ),
    Mutant(
        "node-order-lexicographic-only",
        "graphs.py",
        "    out.sort(key=len)\n",
        "",
        (TERMGRAPH_OF,),
        "sorted_nodes sorts lexicographically only, not by length first",
    ),
    Mutant(
        "termgraph-of-accepts-dangling",
        "graphs.py",
        "            and nodeset.issuperset(chain.from_iterable(succs_d.values()))\n",
        "",
        (TERMGRAPH_OF, GRAPHS + "test_wellformed_rejects_dangling_successor"),
        "TermGraph.of no longer checks that successors are nodes",
    ),
]

GROUPED = "tests/test_parallel.py::test_grouped_walks_match_the_single_ones"
MUTANTS += [
    Mutant(
        "grouped-walk-from-its-first-start-pair",
        "graphs.py",
        "level = [(a.point, b.point)] if starts is None else list(starts)",
        "level = [(a.point, b.point)] if starts is None else list(starts)[:1]",
        (GROUPED,),
        "a walk from several start pairs checks only the first, so a later "
        "pair that fails goes unnoticed",
    ),
    Mutant(
        "grouped-walk-key-ignores-holes-and-names",
        "graphs.py",
        "view = (a.bottoms, a.var_names, b.bottoms, b.var_names)",
        "view = ()",
        (
            GROUPED,
            "tests/test_parallel.py::"
            "test_views_that_differ_in_holes_or_names_get_walks_of_their_own",
        ),
        "pairs between views of the same graphs whose holes or names differ "
        "share one walk over the first pair's views",
    ),
    Mutant(
        "rule-check-record-ignores-the-signature",
        "rules.py",
        "    if sig in er.term_rules:\n        return er.term_rules[sig]\n",
        "    if er.term_rules:\n        return next(iter(er.term_rules.values()))\n",
        (
            "tests/test_rules.py::"
            "test_unravel_rule_translates_once_and_checks_once_per_signature",
        ),
        "a rule translated and checked under one signature is returned "
        "under every other, so one that lacks its operators is not refused",
    ),
    Mutant(
        "upper-bound-check-dropped",
        "parallel.py",
        "if not all_approx_leq(uppers):",
        "if False:",
        (
            "tests/test_parallel.py::"
            "test_the_upper_bound_check_catches_a_shallow_limit",
        ),
        "a sampled development above the symbolic limit goes unnoticed "
        "when the last one agrees with it to the effective depth",
    ),
]

LOCAL_STEPS = "tests/test_dpo.py::test_local_steps_match_the_reference_on_"
MUTANTS += [
    Mutant(
        "fresh-ids-skip-only-kept-ids",
        "dpo.py",
        "fresh_ids = [ids.take(g.nodes) for _ in range(plan.fresh)]",
        "fresh_ids = [ids.take(g.nodes - gone.keys()) for _ in range(plan.fresh)]",
        (LOCAL_STEPS + "hand_built_rules",),
        "a fresh id skips only the ids H keeps, so it can reuse the id of "
        "a node merged away",
    ),
    Mutant(
        "fresh-id-release-dropped",
        "graphs.py",
        "            heapq.heappush(self.free, int(k))",
        "            pass",
        ("tests/test_dpo.py::test_local_steps_reuse_the_fresh_ids_merges_free",),
        "an id a merge frees is never taken again, so a later fresh id is "
        "not the least one D lacks",
    ),
    Mutant(
        "fresh-ids-scan-from-h0",
        "graphs.py",
        '        while f"{self.prefix}{self.high}" in nodes:\n',
        '        self.high = 0\n        while f"{self.prefix}{self.high}" in nodes:\n',
        ("tests/test_dpo.py::test_fresh_ids_cost_a_few_probes_per_step",),
        "every fresh id is found by a scan up from h#0, so a step costs "
        "time linear in the fresh nodes made before it",
    ),
    Mutant(
        "termgraph-of-keeps-insertion-order",
        "graphs.py",
        "        nodeset = set(nodes)\n"
        "        node_d = dict.fromkeys(sorted_nodes(nodeset))\n",
        "        node_d = dict.fromkeys(nodes)\n"
        "        nodeset = set(node_d)\n",
        (
            GRAPHS + "test_termgraph_of_matches_the_reference",
            LOCAL_STEPS + "rings_lassos_and_dags",
        ),
        "`TermGraph.of` keeps its input's order, so a graph built from a "
        "set, as `derive` and `Stepper.current` build H, lists its nodes "
        "out of node_key order",
    ),
    Mutant(
        "rational-term-point-unchecked",
        "graphs.py",
        "        if self.point not in g.nodes:\n",
        "        if False:\n",
        (GRAPHS + "test_graph_errors[point]",),
        "a rational term accepts a point that is not a node of its graph",
    ),
    Mutant(
        "redirected-edge-without-predecessor",
        "dpo.py",
        "        for q in changed:\n",
        "        for q in changed - (gluing.before.nodes - set(gluing.h.values())):\n",
        (
            LOCAL_STEPS + "generated_cases[1]",
            LOCAL_STEPS + "rings_lassos_and_dags",
        ),
        "an edge redirected from a merged-away node gets no entry in the "
        "predecessor index",
    ),
    Mutant(
        "region-node-keeps-its-hole-tag",
        "dpo.py",
        "    bottoms.difference_update(region)  # R's other images are fresh\n",
        "",
        (LOCAL_STEPS + "hand_built_rules",),
        "a matched node that was a hole stays one after it gains content",
    ),
    Mutant(
        "b-checked-on-the-region-only",
        "dpo.py",
        "check_morphism(GraphMorphism(before, g, track), touched)",
        "check_morphism(GraphMorphism(before, g, track), region)",
        (
            "tests/test_dpo.py::"
            "test_b_is_checked_at_the_predecessors_of_merged_away_nodes",
        ),
        "b is checked on the matched region only, not at the predecessors "
        "of merged-away nodes",
    ),
    Mutant(
        "kept-target-merged-with-the-past-hole",
        "parallel.py",
        "                self.redexes.append(nid)",
        "                nid = self._shared[m, ss] = self.past[m]",
        (CUTS, REFERENCE),
        "a kept member's node is the target's past node, a hole, so no "
        "kept redex is developed",
    ),
]

DECISION = "tests/test_parallel.py::test_the_depth_decision_matches_the_linear_scan"
MUTANTS += [
    Mutant(
        "asked-depth-probe-restored",
        "parallel.py",
        "        settled = table.within(budget, threshold)",
        "        table.count(threshold)\n"
        "        settled = table.within(budget, threshold)",
        (
            "tests/test_harness.py::"
            "test_the_depth_decision_reads_rows_only_to_the_budget",
        ),
        "the count table is filled to the asked depth's threshold before "
        "the budget's depth is read off it",
    ),
    Mutant(
        "depth-scan-off-by-one",
        "parallel.py",
        "threshold_length(rs, eff_depth) > settled:",
        "threshold_length(rs, eff_depth) >= settled:",
        (DECISION, CUTS),
        "the scan steps below a depth whose members all fit",
    ),
    Mutant(
        "repeat-refusal-dropped",
        "parallel.py",
        "        if st in listed:",
        "        if False:",
        (
            "tests/test_parallel.py::test_a_repeated_occurrence_is_refused",
            "tests/test_parallel.py::test_prefix_check_matches_the_quadratic_one",
        ),
        "a supplied occurrence listed twice is counted as another member",
    ),
]


PARALLEL = "tests/test_parallel.py::"
FACTS = PARALLEL + "test_rule_facts_are_computed_once_per_rule"
MUTANTS += [
    Mutant(
        "redex-node-developed-uncopied",
        "parallel.py",
        "return develop_rational(spined, [(copies[-1], rule)])[0]",
        "return develop_rational(spined, [(spine[-1], rule)])[0]",
        (
            PARALLEL + "test_reduce_touches_one_occurrence_despite_sharing",
            PARALLEL + "test_development_order_independent_but_step_counts_differ",
            PARALLEL + "test_join_parallel_on_a_cycle",
        ),
        "a step develops the original redex node, which every occurrence "
        "sharing it reaches, not the copy only the redex occurrence reaches",
    ),
    Mutant(
        "rhs-variable-bound-at-its-first-letter",
        "parallel.py",
        "image[n] = g.walk(m, rule.var_positions[name])",
        "image[n] = g.walk(m, rule.var_positions[name][:1])",
        (
            PARALLEL + "test_reduce_collapsing",
            PARALLEL + "test_develop_rational_cdr_cycle",
        ),
        "a right-hand-side variable is bound to the target's successor its "
        "position starts with, not to the node at its whole position",
    ),
    Mutant(
        "rhs-variable-keeps-its-last-occurrence",
        "rules.py",
        "out[names[g.walk(point, w)]].append(w)",
        "out[names[g.walk(point, w)]][:] = [w]",
        (
            PARALLEL + "test_residuals_duplicated",
            PARALLEL + "test_residuals_of_set_dedups",
            FACTS,
        ),
        "a variable the right-hand side copies keeps only its last "
        "occurrence there, so a redex below it has one residual",
    ),
    Mutant(
        "variable-positions-recomputed-per-call",
        "rules.py",
        "    @cached_property\n    def var_positions(self)",
        "    @property\n    def var_positions(self)",
        (FACTS,),
        "the left-hand side's variable positions are walked again on every "
        "read, not once per rule",
    ),
    Mutant(
        "listed-prefix-test-dropped",
        "parallel.py",
        "if missing is None and at[st] == target and st not in listed:",
        "if missing is None and at[st] == target:",
        (
            PARALLEL + "test_oracle_supplied_enumeration",
            PARALLEL + "test_prefix_check_matches_the_quadratic_one",
        ),
        "a member prefix of a supplied occurrence counts as missing even "
        "when it was listed earlier",
    ),
    Mutant(
        "threshold-one-short-without-lift",
        "parallel.py",
        "    if not rule.lift or g is None:\n        return depth\n",
        "    if not rule.lift or g is None:\n        return depth - (not rule.lift)\n",
        (
            PARALLEL + "test_the_threshold_settles_the_limit",
            PARALLEL + "test_threshold_lengths",
        ),
        "a rule that lifts nothing keeps the members shorter than depth - 1, "
        "so a hole is left at the depth the limit must settle",
    ),
    Mutant(
        "lift-one-short",
        "rules.py",
        "return max([0, *(len(vpos[x]) - len(ws[0]) for x, ws in occs)])",
        "return max([1, *(len(vpos[x]) - len(ws[0]) for x, ws in occs)]) - 1",
        (
            PARALLEL + "test_the_threshold_settles_the_limit",
            PARALLEL + "test_lift_is_the_most_a_contraction_raises_a_variable",
        ),
        "a contraction is taken to lift a residual one level less than it "
        "can, so the threshold leaves out members the depth needs",
    ),
]

RULES = "tests/test_rules.py::"
TERMS = "tests/test_terms.py::"
MUTANTS += [
    Mutant(
        "overlap-checked-in-one-direction",
        "harness.py",
        "pairs += [(pat, r.lhs_pattern, False), (r.lhs_pattern, pat, False)]",
        "pairs += [(r.lhs_pattern, pat, False)]",
        (
            "tests/test_harness.py::test_generated_rules_are_orthogonal",
            "tests/test_harness.py::"
            "test_gen_case_matches_the_whole_system_reference",
        ),
        "a candidate rule is checked for overlaps inside accepted rules "
        "only, not for accepted rules overlapping inside it",
    ),
    Mutant(
        "overlap-arity-not-compared",
        "rules.py",
        "ops1 = {w: (f, k) for w, f, k in p1}\n"
        "    ops2 = [(v, (f, k)) for v, f, k in p2]\n",
        "ops1 = {w: f for w, f, k in p1}\n"
        "    ops2 = [(v, f) for v, f, k in p2]\n",
        (
            RULES + "test_overlaps_match_unification_at_every_position",
            RULES + "test_overlaps_below_the_root",
        ),
        "the overlap walk compares symbols only, so one symbol at two "
        "arities counts as agreeing",
    ),
    Mutant(
        "overlap-under-l1-variable-is-a-clash",
        "rules.py",
        "ops1.get(w + v, f) == f",
        "ops1.get(w + v) == f",
        (
            RULES + "test_overlaps_match_unification_at_every_position",
            RULES + "test_overlaps_below_the_root",
            RULES + "test_self_overlap",
        ),
        "an operator of `l2` that lies under a variable of `l1` counts as "
        "a clash, not as bound by that variable",
    ),
    Mutant(
        "overlap-positions-in-preorder",
        "rules.py",
        "for w in sorted(ops1, key=occ_sort_key):",
        "for w in ops1:",
        (
            RULES + "test_overlaps_match_unification_at_every_position",
            RULES + "test_overlaps_below_the_root",
        ),
        "overlap positions come in preorder, not length-lex order",
    ),
    Mutant(
        "unravel-memo-keyed-by-node",
        "graphs.py",
        "        here: Dict[NodeId, Tuple[FiniteTerm, int]] = {}\n",
        "        here = below\n",
        (GRAPHS + "test_unravel_matches_the_recursive_reference",),
        "one unraveling memo for all distances, keyed by node alone, so a "
        "node can take its subterm from another distance",
    ),
    Mutant(
        "term-eq-marks-children-first",
        "terms.py",
        "            todo.extend(zip(a.children, b.children))\n",
        "            pairs = list(zip(a.children, b.children))\n"
        "            seen.update((id(x), id(y)) for x, y in pairs)\n"
        "            todo.extend(pairs)\n",
        (
            TERMS + "test_walk_matches_the_recursive_references",
            TERMS + "test_equality_agrees_with_the_printed_terms",
            TERMS + "test_equality_on_a_doubling_dag_costs_its_distinct_pairs",
        ),
        "`==` marks child pairs as compared when it queues them, before "
        "their labels are compared",
    ),
    Mutant(
        "term-eq-keyed-by-left-object",
        "terms.py",
        "            if a is b or (id(a), id(b)) in seen:\n"
        "                continue\n"
        "            seen.add((id(a), id(b)))\n",
        "            if a is b or id(a) in seen:\n"
        "                continue\n"
        "            seen.add(id(a))\n",
        (
            TERMS + "test_equality_agrees_with_the_printed_terms",
            TERMS + "test_equality_on_a_doubling_dag_costs_its_distinct_pairs",
        ),
        "`==` skips a pair whose left term it has compared with any term",
    ),
]


DPO = "tests/test_dpo.py::"
MUTANTS += [
    Mutant(
        "gluing-plan-ignores-identification",
        "dpo.py",
        "    plan = rule.plans.get(pattern)\n",
        "    plan = next(iter(rule.plans.values()), None)\n",
        (DPO + "test_a_rule_keeps_one_gluing_plan_per_identification_pattern",),
        "a rule's first gluing plan serves every later match, whichever K "
        "nodes that match identifies",
    ),
    Mutant(
        "gluing-plans-keyed-by-rule-identity",
        "dpo.py",
        "    plan = rule.plans.get(pattern)\n"
        "    if plan is None:\n"
        "        plan = rule.plans[pattern] = _plan(rule, pattern)\n",
        '    plans = globals().setdefault("_PLANS", {})\n'
        "    plan = plans.get((id(rule), pattern))\n"
        "    if plan is None:\n"
        "        plan = plans[id(rule), pattern] = _plan(rule, pattern)\n",
        (DPO + "test_plans_live_on_their_rules",),
        "gluing plans are cached by the rule's object identity, which a rule "
        "built after another was dropped can take over",
    ),
    Mutant(
        "rematch-prefilter-wrong-label",
        "dpo.py",
        "                    if roots[i] == lbl:\n",
        "                    if rule.R.labels.get(rule.r[rule.root]) == lbl:\n",
        (LOCAL_STEPS + "rings_lassos_and_dags", LOCAL_STEPS + "generated_cases[0]"),
        "after a step, a rule is re-checked only at nodes carrying its "
        "right-hand side's root label, not its left-hand side's",
    ),
    Mutant(
        "rematch-keeps-matches-of-a-relabelled-node",
        "dpo.py",
        "for i in self._by_label.get(lbl, ()) if k else range(len(rules)):",
        "for i in self._by_label.get(lbl, ()):",
        (LOCAL_STEPS + "rings_lassos_and_dags",),
        "a changed node is re-checked only against the rules of its new "
        "label, so a match under its old label survives the step",
    ),
    Mutant(
        "rematch-keeps-a-stale-match",
        "dpo.py",
        "                        live[v] = mapping\n",
        "                        live.setdefault(v, mapping)\n",
        (LOCAL_STEPS + "rings_lassos_and_dags",),
        "a node that still matches after a step keeps the match found "
        "before it, whose variables may point at nodes the step changed",
    ),
    Mutant(
        "label-index-one-rule-per-label",
        "dpo.py",
        "by_label.setdefault(lbl, []).append(i)",
        "by_label[lbl] = [i]",
        (DPO + "test_rules_sharing_a_root_label_are_all_matched",),
        "the stepper's label index keeps one rule per root label, so of two "
        "rules with the same root label only one is matched at set-up",
    ),
    Mutant(
        "step-forgets-what-it-merged",
        "dpo.py",
        "            yield Step(rule, v, gone)\n",
        "            yield Step(rule, v, {})\n",
        ("tests/test_parsing_cli.py::"
         "test_cli_rewrite_prints_the_steps_the_replay_takes",),
        "a step reports no merged-away nodes, so `tgr rewrite` prints the "
        "identity as the track of a step that merges nodes",
    ),
    Mutant(
        "developed-inner-nodes-left-out",
        "parallel.py",
        "        used.update(image.values())\n",
        "",
        (PARALLEL + "test_develop_rational_gives_inner_nodes_fresh_ids",),
        "`develop_rational` takes g# ids for the right-hand side's inner "
        "nodes without adding them to the developed graph's node set",
    ),
]


def check(m: Mutant) -> str:
    """Apply one mutant in a copy and run its tests: '' or what went wrong."""
    with tempfile.TemporaryDirectory(prefix="tgr-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src")
        shutil.copytree(ROOT / "tests", copy / "tests")
        path = copy / "src" / "tgr" / m.file
        text = path.read_text(encoding="utf-8")
        if text.count(m.before) != 1:
            return f"snippet occurs {text.count(m.before)} times in {m.file}"
        path.write_text(text.replace(m.before, m.after), encoding="utf-8")
        passed = []
        for test in m.catches:
            for seed in HASH_SEEDS:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x",
                     "-p", "no:cacheprovider", test],
                    cwd=copy,
                    env={
                        **os.environ,
                        "PYTHONPATH": str(copy / "src"),
                        "PYTHONHASHSEED": seed,
                    },
                    capture_output=True,
                    text=True,
                )
                if run.returncode == 0:
                    passed.append(f"{test} (PYTHONHASHSEED={seed})")
                elif run.returncode != 1:  # not a test failure: a broken run
                    return f"{test} did not run:\n{run.stdout[-2000:]}"
        return f"not caught by {', '.join(passed)}" if passed else ""


def main(names: List[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    failed = 0
    for m in chosen:
        problem = check(m)
        failed += bool(problem)
        print(f"{'FAIL' if problem else 'ok  '} {m.name}: {problem or m.why}")
    print(f"{len(chosen) - failed} of {len(chosen)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
