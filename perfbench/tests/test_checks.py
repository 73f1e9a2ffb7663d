"""Each correctness check passes on good output and fails on corrupted output.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
No workload runs here; the checks get hand-made or cheaply computed
outputs.
"""

import copy

import numpy as np
import pytest

import anchors
import workloads
from anchors import CheckFailed
from repro.ciphers.gimli import gimli_permute_batch
from repro.core.distinguisher import OnlineResult
from repro.core.scenario import GimliCipherScenario, GimliHashScenario


def test_independent_gimli_reproduces_designer_vector():
    assert tuple(anchors.gimli_spec(anchors.DESIGNER_INPUT)) == anchors.DESIGNER_OUTPUT


def test_designer_vector_check():
    output = gimli_permute_batch(np.array(anchors.DESIGNER_INPUT, dtype=np.uint32))
    anchors.check_designer_vector(output)
    perturbed = output.copy()
    perturbed[5] ^= np.uint32(1 << 17)
    with pytest.raises(CheckFailed):
        anchors.check_designer_vector(perturbed)


@pytest.mark.parametrize("scenario", [GimliHashScenario(rounds=6),
                                      GimliHashScenario(rounds=7)])
def test_hash_pipeline_matches_spec_and_perturbation_fails(scenario):
    workloads.check_hash_pipeline(scenario, seed=3)
    inputs = scenario.sample_base_inputs(4, np.random.default_rng(0))
    outputs = scenario.pipeline(inputs)
    references = [anchors.hash_block_spec(r, 15, scenario.rounds) for r in inputs]
    anchors.check_rows(outputs, references, "hash")
    outputs[2, 1] ^= np.uint32(1)
    with pytest.raises(CheckFailed):
        anchors.check_rows(outputs, references, "hash")


def test_cipher_pipeline_matches_spec_and_wrong_rounds_fail():
    scenario = GimliCipherScenario(total_rounds=8)
    workloads.check_cipher_pipeline(scenario, seed=5)
    generator = np.random.default_rng(1)
    nonces = scenario.sample_base_inputs(4, generator)
    keys = scenario.sample_context(4, generator)
    nine = GimliCipherScenario(total_rounds=9).pipeline(nonces, keys)
    with pytest.raises(CheckFailed):
        anchors.check_rows(
            nine, [anchors.cipher_c0_spec(n, k, 8) for n, k in zip(nonces, keys)],
            "c0",
        )


GOOD_ROW = {
    "target": "hash", "rounds": 6, "paper": 0.9689, "offline_samples": 20000,
    "measured": 0.9805, "aborted": False, "online_samples": 8192,
    "cipher_accuracy": 0.981, "cipher_verdict": "CIPHER",
    "random_accuracy": 0.5031, "random_verdict": "RANDOM",
}


def _row(**changes):
    row = copy.deepcopy(GOOD_ROW)
    row.update(changes)
    return row


def test_table2_rows_pass():
    workloads.check_table2_rows([_row(), _row()], 20000)


@pytest.mark.parametrize("bad", [
    # swapped oracles: the "random" side scores like the cipher
    _row(cipher_accuracy=0.50, random_accuracy=0.981,
         cipher_verdict="RANDOM", random_verdict="CIPHER"),
    _row(cipher_verdict="RANDOM"),            # flipped verdict
    _row(random_verdict="CIPHER"),            # flipped verdict
    _row(random_accuracy=0.53),               # far from 1/t
    _row(measured=0.95),                      # below 0.9689 - 3 SE
    _row(aborted=True),
])
def test_table2_rows_fail(bad):
    with pytest.raises(CheckFailed):
        workloads.check_table2_rows([bad], 20000)


def test_table2_rows_must_repeat():
    with pytest.raises(CheckFailed):
        workloads.check_table2_rows([_row(), _row(measured=0.9806)], 20000)


def _online(accuracy, is_cipher, n=1 << 16):
    return OnlineResult(accuracy=accuracy, num_samples=n, num_classes=2,
                        training_accuracy=0.977, threshold=0.7385,
                        p_value=0.5, is_cipher=is_cipher)


def test_online_results():
    good = (_online(0.977, True), _online(0.5012, False))
    workloads.check_online_results([good, good])
    swapped = (good[1], good[0])
    flipped = (good[0], _online(0.5012, True))
    off = (good[0], _online(0.51, False))
    for bad in (swapped, flipped, off):
        with pytest.raises(CheckFailed):
            workloads.check_online_results([bad])
    with pytest.raises(CheckFailed):
        workloads.check_online_results([good, (good[0], _online(0.5013, False))])


ALLOWED = [0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0x00FFFFFF]
MASKS = [[0, 0x80, 0, 0], [0, 0, 0, 0x80], [0x80, 0, 0, 0], [0, 0x8000, 0, 0]]
SCORES = [0.039, 0.038, 0.0375, 0.037]


def test_search_passes():
    anchors.check_search(SCORES, MASKS, ALLOWED, [0.019, 0.018], 0.0176)


@pytest.mark.parametrize("scores, masks, paper, floor", [
    ([1.2] + SCORES[1:], MASKS, [0.019], 0.0176),          # score > 1
    (SCORES, MASKS, [0.05], 0.0176),                       # below the seed
    (SCORES, MASKS, [0.019], 0.04),                        # at the noise
    (SCORES, [MASKS[0]] * 4, [0.019], 0.0176),             # repeated masks
    (SCORES, MASKS[:3] + [[0, 0, 0, 0x80000000]], [0.019], 0.0176),  # outside
    (SCORES, MASKS[:3] + [[0, 0, 0, 0]], [0.019], 0.0176),  # zero mask
    (SCORES[::-1], MASKS, [0.019], 0.0176),                # not ranked
])
def test_search_fails(scores, masks, paper, floor):
    with pytest.raises(CheckFailed):
        anchors.check_search(scores, masks, ALLOWED, paper, floor)


def _state(verdict, correct, samples=16384):
    return {"done": True, "samples": samples, "correct": correct,
            "verdict": verdict, "num_classes": 2, "accuracy": correct / samples}


def test_session_states():
    workloads.check_session_states(
        _state("CIPHER", 16000), _state("RANDOM", 8200), [16000, 8200], 16384
    )
    cases = [
        (_state("RANDOM", 8200), _state("CIPHER", 16000), [8200, 16000]),  # swapped
        (_state("CIPHER", 16000), _state("CIPHER", 8200), [16000, 8200]),  # flipped
        (_state("CIPHER", 16000), _state("RANDOM", 8201), [16000, 8200]),  # counts
        (_state("CIPHER", 16000), _state("RANDOM", 8200, samples=15872),
         [16000, 8200]),                                                   # short
    ]
    for cipher, random, expected in cases:
        with pytest.raises(CheckFailed):
            workloads.check_session_states(cipher, random, expected, 16384)


def test_probabilities_bit_for_bit():
    local = np.random.default_rng(0).random((8, 2))
    workloads.check_probabilities(local.tolist(), local)
    served = local.copy()
    served[3, 1] = np.nextafter(served[3, 1], 2.0)
    with pytest.raises(CheckFailed):
        workloads.check_probabilities(served.tolist(), local)
