"""A catalogue of mutants of the fast paths, and the runner that replays them.

Each entry breaks one fast path in one place: it replaces ``old``, which
must occur exactly once in ``file``, by ``new``.  ``tests`` names the test
ids that must fail on the mutant, and ``breaks`` says what it breaks.

Usage, from the root of a checkout (needs pytest and hypothesis):

    python tests/mutants.py [ID ...]

For each entry (all of them by default) the runner copies ``src/`` and
``tests/`` to a temporary directory, applies the entry there, and runs only
the entry's tests against the copy with ``--hypothesis-seed=0``.  It
reports the entry as

- ``killed`` when every named test fails;
- ``survived`` when one of them passes;
- ``stale`` when ``old`` does not occur exactly once, or pytest finds no
  test of a named id.

The exit status is 0 only when every entry is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    breaks: str


MUTANTS = (
    Mutant(
        "cyclic4-remainder",
        "src/gf4lrc/families.py",
        "    if rem:\n        raise NotADivisor",
        "    if rem >> 2:\n        raise NotADivisor",
        ("tests/test_families.py::test_cyclic_accepts_exactly_the_divisors",),
        "a g whose remainder is a nonzero constant, such as x, passes as a divisor",
    ),
    Mutant(
        "cyclic4-h-row-step",
        "src/gf4lrc/families.py",
        "        r ^= scale_row(4, h_star, r >> 2 * k, lo)",
        "        r ^= h_star if r >> 2 * k else 0",
        ("tests/test_families.py::test_cyclic_accepts_exactly_the_divisors",),
        "x * (x^f mod h*) reduces by h* unscaled, so a row is wrong when the carry is w or w^2",
    ),
    Mutant(
        "transform-slot-sign",
        "src/gf4lrc/code.py",
        "        if rem or total & sign:",
        "        if rem:",
        ("tests/test_code.py::test_horner_transform_matches_the_column_sums",),
        "a negative coefficient reads as its slot's unsigned value, a count 2^s too high",
    ),
    Mutant(
        "transform-slot-width",
        "src/gf4lrc/code.py",
        "    s = (q**n * sum(dual_counts)).bit_length() + 2",
        "    s = (q**n).bit_length() + 2",
        ("tests/test_code.py::test_horner_transform_matches_the_column_sums",),
        "slots sized without the dual's word count overflow into their neighbours",
    ),
    Mutant(
        "walk-half-table-index",
        "src/gf4lrc/code.py",
        "hi_table[(col & below) >> half]",
        "hi_table[(col >> half) & lo_bits]",
        (
            "tests/test_enumerator.py::test_histogram_and_certificate_match_gray_walk",
            "tests/test_side_weights.py::test_either_side_of_a_plain_code_weighs_as_its_enumeration",
        ),
        "at an odd number of low step bits the high half loses its top bit",
    ),
    Mutant(
        "constructor-rank",
        "src/gf4lrc/code.py",
        "            if rows_rank(matrix.q, matrix.rows, matrix.ncols) != matrix.nrows:",
        "            if rows_rank(2, matrix.rows, matrix.ncols) != matrix.nrows:",
        (
            "tests/test_code.py::"
            "test_the_constructor_refuses_a_dependent_generator_or_parity_check",
            "tests/test_code.py::test_a_row_summed_from_other_rows_is_refused_by_every_entry",
            "tests/test_concat.py::test_an_outer_code_with_a_dependent_parity_check_is_refused",
        ),
        "G and H are ranked as binary rows, so rows that differ by a scalar w pass",
    ),
    Mutant(
        "lrc-lift-order",
        "src/gf4lrc/concat.py",
        "            for pos, bit in zip(group, (a ^ b, a, b)):",
        "            for pos, bit in zip(group, (a, a ^ b, b)):",
        (
            "tests/test_dependent_set.py::test_certifier_matches_reference_subset_loop",
            "tests/test_enumerator.py::test_out_of_subsets_an_lrc_takes_its_pair_walks_first_word",
        ),
        "a group's pair (a, b) lifts to (a, a+b, b), which breaks the group's lower-block sum",
    ),
    Mutant(
        "plain-lift-digit",
        "src/gf4lrc/code.py",
        "certify_dependent_set(self, blocks, tuple, budget, start, METHOD_COLUMN)",
        "certify_dependent_set(self, blocks, lambda s: [min(a, 1) for a in s], budget, start, "
        "METHOD_COLUMN)",
        (
            "tests/test_dependent_set.py::"
            "test_plain_column_search_from_any_start_up_to_d_gives_the_same_certificate",
            "tests/test_code.py::test_smallest_dependent_column_set_matches_distance",
        ),
        "a GF(4) coefficient w or w^2 is placed as 1, so the column witness is not a codeword",
    ),
    Mutant(
        "walk-witness-weight-index",
        "src/gf4lrc/concat.py",
        "first[d // 2]",
        "first[d]",
        ("tests/test_enumerator.py::test_out_of_subsets_an_lrc_takes_its_pair_walks_first_word",),
        "the fallback reads the pair walk's first word of symbol weight d, not d/2",
    ),
    Mutant(
        "carried-weights-unlifted",
        "src/gf4lrc/concat.py",
        "        lrc._weights = lrc_weights_from_outer(weights)",
        "        lrc._weights = weights",
        ("tests/test_concat.py::test_a_concatenation_carries_its_outer_weights_and_walk_lifted",),
        "a concatenation holds its outer code's GF(4) weights as its own binary ones",
    ),
    Mutant(
        "dependent-set-two-block-pair",
        "src/gf4lrc/matrix.py",
        "for q in sorted({q for v in own[p] for q in carriers[v] if q > p}):",
        "for q in sorted({q for v in own[p] for q in carriers[v] if q > p}, reverse=True):",
        (
            "tests/test_dependent_set.py::test_engine_matches_subset_loop_on_random_blocks",
            "tests/test_dependent_set.py::test_column_search_matches_reference_dfs",
        ),
        "the two-block step pairs a block with its last partner sharing a vector, not its first",
    ),
    Mutant(
        "dependent-set-resume-after-child",
        "src/gf4lrc/matrix.py",
        "        stack.append((pos + 1, idx, cols, prefix))\n"
        "        head = xor_basis([col[pos] for col in cols], independent=True)\n"
        "        if head is None or need == 1:\n"
        "            spend(math.comb(len(idx) - pos - 1, need - 1))\n"
        "            if head is None and need == 1:\n"
        "                yield prefix + (idx[pos],)\n"
        "            continue\n"
        "        rest = [col[pos + 1 :] for col in cols]\n"
        "        for low, p, _ in head:\n"
        "            rest = [[v ^ p if v & low else v for v in col] for col in rest]\n"
        "        stack.append((0, idx[pos + 1 :], rest, prefix + (idx[pos],)))\n",
        "        head = xor_basis([col[pos] for col in cols], independent=True)\n"
        "        if head is None or need == 1:\n"
        "            spend(math.comb(len(idx) - pos - 1, need - 1))\n"
        "            if head is None and need == 1:\n"
        "                yield prefix + (idx[pos],)\n"
        "            stack.append((pos + 1, idx, cols, prefix))\n"
        "            continue\n"
        "        rest = [col[pos + 1 :] for col in cols]\n"
        "        for low, p, _ in head:\n"
        "            rest = [[v ^ p if v & low else v for v in col] for col in rest]\n"
        "        stack.append((0, idx[pos + 1 :], rest, prefix + (idx[pos],)))\n"
        "        stack.append((pos + 1, idx, cols, prefix))\n",
        (
            "tests/test_dependent_set.py::test_engine_matches_subset_loop_on_random_blocks",
            "tests/test_dependent_set.py::"
            "test_dependent_sets_lie_between_the_minimal_and_the_dependent_sets",
        ),
        "a frame's next candidate is pushed after its child, so its siblings run first",
    ),
    Mutant(
        "covering-set-dependent-without-anchor",
        "src/gf4lrc/concat.py",
        "                if not v and at == width * size:",
        "                if not v:",
        (
            "tests/test_enumerator.py::test_covering_sets_decide_locality_as_the_dual_walk_does",
        ),
        "an anchored set whose own vectors are dependent is taken as coordinate j's covering set",
    ),
    Mutant(
        "cap-verify-unstopped",
        "src/gf4lrc/projective.py",
        "start=3, stop=3)",
        "start=3)",
        (
            "tests/test_projective.py::test_verify_makes_one_dependent_set_search",
            "tests/test_projective.py::test_bundled_cap_matches_fresh_search",
        ),
        "cap verification searches past size 3, so a cap runs out of its budget of C(m, 3) sets",
    ),
    Mutant(
        "row-digits-odd-pad",
        "src/gf4lrc/matrix.py",
        '    return format(row, f"0{(ncols + 1) // 2}x")',
        '    return format(row, f"0{ncols // 2}x")',
        (
            "tests/test_layout.py::test_layout_matches_the_per_symbol_loops",
            "tests/test_layout.py::test_unpack_drops_symbols_beyond_ncols",
        ),
        "an odd GF(4) row is padded to one hex digit too few, so a zero top symbol is lost",
    ),
    Mutant(
        "carried-cert-unlifted",
        "src/gf4lrc/concat.py",
        "        word = lrc.lift(cached.witness)",
        "        word = cached.witness",
        (
            "tests/test_concat.py::test_a_carried_certificate_is_the_loaded_lrcs_group_search",
            "tests/test_concat.py::test_a_family_lrc_searches_only_where_its_outer_code_enumerated",
        ),
        "a concatenation carries its outer code's GF(4) witness as its own binary one",
    ),
    Mutant(
        "pair-check-no-parity",
        "src/gf4lrc/concat.py",
        "        if any(word[a] ^ word[b] ^ word[c] for a, b, c in self.groups):\n"
        "            return False\n",
        "",
        ("tests/test_concat.py::test_the_pair_code_check_agrees_with_h",),
        "a word whose pair word is in P passes with a group's three bits summing to 1",
    ),
    Mutant(
        "reproduce-d-outer-weights",
        "src/gf4lrc/reproduce.py",
        "        return self.lrc.cheapest_weights().distance()",
        "        return self.outer.cheapest_weights().distance()",
        (
            "tests/test_reproduce.py::test_all_items_match_or_are_noted",
            "tests/test_reproduce.py::test_a_full_run_makes_no_group_search",
        ),
        "an LRC's d reads the outer weights, d1, where the LRC's d is 2 * d1",
    ),
    Mutant(
        "walk-counter-carry",
        "src/gf4lrc/code.py",
        "                carry &= held\n",
        "",
        (
            "tests/test_enumerator.py::test_histogram_and_certificate_match_gray_walk",
            "tests/test_side_weights.py::test_either_side_of_a_plain_code_weighs_as_its_enumeration",
        ),
        "the bit-sliced counter adds without carrying, so a weight's planes count the wrong steps",
    ),
    Mutant(
        "cap-weights-threshold",
        "src/gf4lrc/families.py",
        "        if d is not None and d < 4:",
        "        if d is not None and d < 3:",
        (
            "tests/test_families.py::"
            "test_cap_code_refuses_and_certifies_as_the_triple_search_does",
        ),
        "a spanning point set with a collinear triple, a code with d = 3, passes as a cap",
    ),
    Mutant(
        "lrc-lower-rank-slice",
        "src/gf4lrc/concat.py",
        "rows_rank(2, lrc.dual_rows, 2 * lrc.ell)",
        "rows_rank(2, lrc.dual_rows[1:], 2 * lrc.ell)",
        (
            "tests/test_concat.py::test_loading_runs_one_rank_elimination_and_no_nullspace",
            "tests/test_concat.py::test_lrc_json_round_trip",
        ),
        "a loaded LRC ranks one lower row too few, so every LRC file is refused as dependent",
    ),
    Mutant(
        "xor-reduce-provenance",
        "src/gf4lrc/matrix.py",
        "            mask ^= pmask",
        "            mask |= pmask",
        (
            "tests/test_kernel.py::test_provenance_names_the_inputs",
            "tests/test_dependent_set.py::test_engine_matches_subset_loop_on_random_blocks",
        ),
        "an input that two reducing entries both name stays in the provenance mask",
    ),
    Mutant(
        "json-text-digit-run",
        "src/gf4lrc/cli.py",
        "    if len(digits) == len(ints):",
        "    if digits:",
        ("tests/test_cli.py::test_json_text_is_the_stdlib_indented_text",),
        "a run of ints with one outside 0..9 is written as the digits of the others only",
    ),
    Mutant(
        "json-text-row-reuse",
        "src/gf4lrc/cli.py",
        "        if row is not last:",
        "        if type(row) is not type(last):",
        ("tests/test_cli.py::test_json_text_is_the_stdlib_indented_text",),
        "the writer reuses one row's text for the next row of the same type, a different row",
    ),
    Mutant(
        "body-reader-row-order",
        "src/gf4lrc/matrix.py",
        "for end in ends]",
        "for end in reversed(ends)]",
        (
            "tests/test_layout.py::test_a_body_is_read_as_the_split_reader_reads_it",
            "tests/test_concat.py::test_lrc_json_round_trip",
        ),
        "a canonical body's rows are cut from its digits last row first",
    ),
    Mutant(
        "body-reader-alphabet",
        "src/gf4lrc/matrix.py",
        "            if not digits.translate(None, _ALPHABETS[q]):",
        "            if not digits.translate(None, _ALPHABETS[4]):",
        (
            "tests/test_layout.py::test_a_body_is_read_as_the_split_reader_reads_it",
            "tests/test_layout.py::test_symbol_rows_read_as_the_split_reader_reads_them",
        ),
        "a canonical GF(2) body passes the alphabet check with w or W in it",
    ),
    Mutant(
        "loader-top-block",
        "src/gf4lrc/concat.py",
        "map(xor, rows[:ell], indicators)",
        "map(xor, rows[1:ell], indicators[1:])",
        (
            "tests/test_concat.py::"
            "test_a_loaded_lrcs_refusals_name_the_fault_as_the_column_scan_did",
            "tests/test_concat.py::test_lrc_json_top_row_with_a_one_outside_its_group",
        ),
        "a loaded LRC compares its top block from row 1, so a 1 outside group 0 in row 0 loads",
    ),
    Mutant(
        "lrc-gather-pair-order",
        "src/gf4lrc/concat.py",
        "for p in (b, c)]",
        "for p in (c, b)]",
        (
            "tests/test_concat.py::test_lrc_json_round_trip",
            "tests/test_concat.py::test_a_loaded_lrc_holds_what_the_transpose_route_reads",
        ),
        "a loaded LRC gathers each group's 3rd position into bit 2i and its 2nd into 2i+1",
    ),
    Mutant(
        "lrc-fault-first-position",
        "src/gf4lrc/concat.py",
        "& sum(1 << g[0] for g in groups)",
        "& sum(1 << g[1] for g in groups)",
        (
            "tests/test_concat.py::"
            "test_a_loaded_lrcs_refusals_name_the_fault_as_the_column_scan_did",
            "tests/test_concat.py::test_lrc_json_lower_block_nonzero_under_position_0",
            "tests/golden/test_golden.py::"
            "test_every_corpus_run_gives_its_expected_output_byte_for_byte",
        ),
        "the first-position mask is built from each group's 2nd position, so a lower"
        " row that meets a group's first position loads",
    ),
    Mutant(
        "side-weights-transform-field",
        "src/gf4lrc/code.py",
        "    return krawtchouk_transform(counts, total, n, 1 << width), None",
        "    return krawtchouk_transform(counts, total, n, 2), None",
        (
            "tests/test_side_weights.py::test_either_side_of_a_plain_code_weighs_as_its_enumeration",
            "tests/test_side_weights.py::"
            "test_a_concatenation_weighs_as_its_outer_code_through_one_function",
        ),
        "a dual side of GF(4) symbols is transformed at q = 2, so its weights are wrong",
    ),
    Mutant(
        "covering-word-coefficient",
        "src/gf4lrc/concat.py",
        "            word[t] = mask >> width * at & (1 << width) - 1",
        "            word[t] = 1",
        (
            "tests/test_enumerator.py::test_covering_sets_decide_locality_as_the_dual_walk_does",
        ),
        "a covering set's GF(4) coefficients w and w^2 are written as 1, off the dual",
    ),
    Mutant(
        "repair-lanes-in-position-order",
        "src/gf4lrc/repair.py",
        "return (top - rng.lanes(order, trials))",
        "return (top - rng.lanes(range(len(order)), trials))",
        (
            "tests/test_repair.py::test_per_symbol_draw_at_threshold_edges",
            "tests/test_repair_oracle.py::test_slot_ordered_draw_flags_the_position_at_each_slot",
        ),
        "per-symbol lanes come in position order, so a lane's flag lands on another slot",
    ),
    Mutant(
        "repair-pool-from-positions",
        "src/gf4lrc/repair.py",
        "        pool = _slot_table(order) * trials",
        "        pool = list(range(n)) * trials",
        (
            "tests/test_repair_oracle.py::test_slot_ordered_draw_flags_the_position_at_each_slot",
            "tests/test_repair_oracle.py::test_simulate_matches_reference",
        ),
        "Fisher-Yates runs over positions, not slot labels, so flags land on the wrong slots",
    ),
    Mutant(
        "repair-step-start-without-base",
        "src/gf4lrc/repair.py",
        "range(r, end, n), range(0, end, n)",
        "[r] * trials, range(0, end, n)",
        (
            "tests/test_repair_oracle.py::test_full_size_blocks_draw_as_the_reference",
            "tests/test_repair.py::test_the_repair_workload_kinds_match_the_reference_at_full_size",
        ),
        "every trial's step swaps inside trial 0's pool window, so later trials pick"
        " from a pool that earlier trials have shuffled",
    ),
    Mutant(
        "repair-step-size-off-by-one",
        "src/gf4lrc/repair.py",
        "zip(range(t), range(n, n - t, -1))",
        "zip(range(t), range(n - 1, n - t - 1, -1))",
        (
            "tests/test_repair_oracle.py::test_full_size_blocks_draw_as_the_reference",
            "tests/test_repair.py::test_the_repair_workload_kinds_match_the_reference_at_full_size",
        ),
        "step r picks among n - r - 1 entries, so the window's last entry is never picked",
    ),
    Mutant(
        "repair-lane-output-offset",
        "src/gf4lrc/repair.py",
        "(i + (j + 1) * _GAMMA).to_bytes(16, \"little\")",
        "(i + j * _GAMMA).to_bytes(16, \"little\")",
        (
            "tests/test_repair.py::test_lanes_match_scalar_stream",
            "tests/test_repair.py::test_simulate_matches_golden_report",
        ),
        "lane j holds output layout[j] of its stream, not layout[j] + 1",
    ),
    Mutant(
        "repair-slot-table-not-inverted",
        "src/gf4lrc/repair.py",
        "    return sorted(range(len(order)), key=order.__getitem__)",
        "    return list(order)",
        (
            "tests/test_repair_oracle.py::test_slot_ordered_draw_flags_the_position_at_each_slot",
            "tests/test_repair_oracle.py::test_simulate_matches_reference",
        ),
        "the slot table is the order itself, not its inverse",
    ),
    Mutant(
        "repair-carry-step",
        "src/gf4lrc/repair.py",
        "            self.step = self.block * ones",
        "            self.step = (self.block + 1) * ones",
        (
            "tests/test_repair_oracle.py::test_simulate_across_blocks_matches_reference",
            "tests/test_repair.py::test_simulate_matches_golden_report",
        ),
        "each block's lanes move on by one trial more than a block, so block b draws"
        " the streams of trials b*(block + 1) + i",
    ),
    Mutant(
        "repair-short-block-full-lanes",
        "src/gf4lrc/repair.py",
        "            z &= (1 << 128 * len(layout) * streams) - 1",
        "            pass",
        (
            "tests/test_repair_oracle.py::test_simulate_across_blocks_matches_reference",
            "tests/test_repair.py::test_simulate_matches_golden_report",
        ),
        "a run's last, shorter block reads the full block's lanes, not their low-lane prefix",
    ),
    Mutant(
        "repair-block-by-n-t",
        "src/gf4lrc/repair.py",
        "positions\")\n        return self.t",
        "positions\")\n        return n * self.t",
        ("tests/test_repair.py::test_simulate_draws_once_per_block_and_decodes_each_set_once",),
        "a RandomErasures block is sized by n*t lanes a trial, not the t it draws",
    ),
    Mutant(
        "repair-block-lanes-off-by-one",
        "src/gf4lrc/repair.py",
        "    block = min(max(1, _BLOCK_LANES // lanes), trials)",
        "    block = min(max(1, _BLOCK_LANES // lanes + 1), trials)",
        (
            "tests/test_repair.py::test_simulate_draws_once_per_block_and_decodes_each_set_once",
            "tests/test_repair.py::"
            "test_the_repair_workload_kinds_keep_their_blocks_and_tally_paths",
        ),
        "a block holds one trial more than its lanes fit, so every block draws past"
        " _BLOCK_LANES lanes",
    ),
    Mutant(
        "repair-refusal-after-light-words",
        "src/gf4lrc/repair.py",
        "    lanes = max(1, model.lanes_per_trial(n))",
        "    lanes = max(1, getattr(model, \"t\", n))",
        ("tests/test_repair.py::test_model_validation",),
        "simulate sizes its block without the t <= n check, so a t > n run walks the"
        " weights, and the light words, before draw refuses it",
    ),
    Mutant(
        "repair-bulk-at-d",
        "src/gf4lrc/repair.py",
        "    if d is None or t < d:",
        "    if d is None or t <= d:",
        (
            "tests/test_repair_oracle.py::"
            "test_a_run_below_d_is_tallied_as_the_reference_and_the_visiting_path",
            "tests/test_repair.py::test_simulated_failure_rate_at_t_equal_d_on_15_6_6",
            "tests/golden/test_golden.py::"
            "test_every_corpus_run_gives_its_expected_output_byte_for_byte",
        ),
        "a run of t = d erasures a trial is tallied with no light word, so the trials that"
        " erase a weight-d support count as decoded",
    ),
    Mutant(
        "repair-bulk-accessed",
        "src/gf4lrc/repair.py",
        "            global_accessed += repaired * (n - model.t)",
        "            global_accessed += repaired * (n - model.t + 1)",
        (
            "tests/test_repair_oracle.py::"
            "test_a_run_below_d_is_tallied_as_the_reference_and_the_visiting_path",
            "tests/test_repair.py::test_simulate_matches_golden_report",
        ),
        "a run tallied in bulk counts n - t + 1 symbols read per global repair, one more"
        " than the intact ones",
    ),
    Mutant(
        "repair-bulk-file-d",
        "src/gf4lrc/repair.py",
        "        d = lrc.cheapest_weights(budget).distance()",
        "        d = lrc.d",
        ("tests/test_repair_oracle.py::test_a_files_d_changes_no_report",),
        "a run is certified by the file's stored d, a claim, so an overstated or null d"
        " tallies failing trials as decoded",
    ),
    Mutant(
        "repair-bulk-pair-slots",
        "src/gf4lrc/repair.py",
        "                pairs = [(x & y, x & z, y & z) for x, y, z in triples]",
        "                pairs = [(x & z, x & y, y & z) for x, y, z in triples]",
        (
            "tests/test_repair_oracle.py::"
            "test_every_t_from_d_to_n_is_tallied_as_the_visiting_path",
            "tests/test_repair_oracle.py::"
            "test_failures_at_t_equal_d_are_the_trials_that_erase_a_weight_d_support",
        ),
        "symbols 1 and 2 of a light word lift to each other's slot pairs, so the bulk"
        " tally fails the trials that erase the wrong supports",
    ),
    Mutant(
        "repair-bulk-failing-still",
        "src/gf4lrc/repair.py",
        "                    still &= ~(int.from_bytes(lost, \"little\") * spread)\n",
        "",
        (
            "tests/test_repair_oracle.py::"
            "test_every_t_from_d_to_n_is_tallied_as_the_visiting_path",
        ),
        "a failing trial's still-erased symbols count as globally repaired, so"
        " mean_accessed is off wherever a trial fails",
    ),
    Mutant(
        "lrc-light-word-bound",
        "src/gf4lrc/concat.py",
        "if 0 < 2 * j <= t]",
        "if 0 < 2 * j < t]",
        (
            "tests/test_repair_oracle.py::"
            "test_failures_at_t_equal_d_are_the_trials_that_erase_a_weight_d_support",
            "tests/golden/test_golden.py::"
            "test_every_corpus_run_gives_its_expected_output_byte_for_byte",
        ),
        "the light words leave out those of weight exactly t, so at t = d no trial fails",
    ),
    Mutant(
        "repair-light-symbol-bound",
        "src/gf4lrc/repair.py",
        "        if symbols > _LIGHT_SYMBOLS:",
        "        if False:",
        (
            "tests/test_repair_oracle.py::"
            "test_light_words_past_the_symbol_bound_send_the_run_to_the_visiting_path",
        ),
        "the light words are read whole however many symbols they hold, so the [39,18,8;2]"
        " LRC at t = 14 ANDs 139995 symbols' pair masks a block, 19 times the visiting time",
    ),
    Mutant(
        "repair-weight-two-equal-pair",
        "src/gf4lrc/repair.py",
        "    return either & ones == either >> 1 & ones == differ & ones == ones",
        "    return either & ones == either >> 1 & ones == ones",
        ("tests/test_repair_oracle.py::test_weight_two_certificate_matches_brute_force",),
        "a group whose e1 = e2 passes the certificate, so a weight-2 word of symbol 3"
        " is missed and a t = 2 or 3 run that erases it counts it as decoded",
    ),
    Mutant(
        "nullspace-pivot-w-column",
        "src/gf4lrc/matrix.py",
        "                xor_insert(basis, cols[at + 1], 2 << at)",
        "                pass",
        (
            "tests/test_kernel.py::test_kernel_matches_scalar_elimination",
            "tests/test_kernel.py::"
            "test_nullspace_pass_matches_scalar_elimination_on_wide_matrices",
        ),
        "a pivot column's w*c never enters the basis, so over GF(4) a later column in"
        " the GF(4) span reduces to a nonzero vector and its nullspace row is lost",
    ),
    Mutant(
        "builder-d-unchecked",
        "src/gf4lrc/families.py",
        "    if d != expect:",
        "    if False:",
        ("tests/test_families.py::test_a_builder_whose_code_misses_its_d_is_refused",),
        "a builder returns a code whose exact d is not the one its family advertises",
    ),
    Mutant(
        "concat-d-unlifted",
        "src/gf4lrc/concat.py",
        "groups, 2 * d1 if d1 is not None else None)",
        "groups, d1)",
        (
            "tests/test_concat.py::test_concatenate_matches_tuple_assembly",
            "tests/golden/test_golden.py::"
            "test_every_corpus_run_gives_its_expected_output_byte_for_byte",
        ),
        "a concatenation's d is its outer code's d1, not 2*d1, in construct's report"
        " and in the written LRC file",
    ),
    Mutant(
        "cap-code-k0-accepted",
        "src/gf4lrc/families.py",
        "    code.exact_distance()  # refuses k = 0, as ``min_distance`` does\n",
        "",
        ("tests/test_families.py::test_cap_code_refuses_and_certifies_as_the_triple_search_does",),
        "a cap of independent points gives a k = 0 code, returned where min_distance"
        " refuses it",
    ),
)


def _failed_ids(output: str) -> list[str]:
    """The node ids of pytest's -rfE summary lines."""
    failed = []
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                failed.append(line[len(tag) :].split(" - ")[0].strip())
    return failed


def run(mutant: Mutant) -> tuple[str, str]:
    """The entry's verdict and one line of detail."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        target = work / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"its text occurs {text.count(mutant.old)} times in {mutant.file}"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(work / "src")}
        where = subprocess.run(
            [sys.executable, "-c", "import gf4lrc; print(gf4lrc.__file__)"],
            cwd=work, env=env, capture_output=True, text=True,
        )
        if where.returncode:
            return "stale", "the mutated package does not import"
        if not Path(where.stdout.strip()).resolve().is_relative_to(work.resolve()):
            raise SystemExit(f"error: gf4lrc imports from {where.stdout.strip()}, not the copy")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True,
        )
    if done.returncode in (4, 5):  # a named id matched no test
        return "stale", done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "no tests"
    failed = _failed_ids(done.stdout)
    passing = [t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed)]
    if passing:
        return "survived", "passes " + ", ".join(passing)
    return "killed", f"{len(failed)} failed"


def main(argv: list[str]) -> int:
    by_id = {m.id: m for m in MUTANTS}
    unknown = [i for i in argv if i not in by_id]
    if unknown:
        print(f"error: unknown mutant id(s) {', '.join(unknown)}", file=sys.stderr)
        return 2
    verdicts = []
    for mutant in [by_id[i] for i in argv] or MUTANTS:
        verdict, detail = run(mutant)
        verdicts.append(verdict)
        print(f"{verdict:9s} {mutant.id}: {detail}", flush=True)
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
