"""Correctness anchors that come from outside the program under test.

Everything here is written from the published specifications, not from
``repro``'s own code, so a check that compares the program against it
cannot pass merely because the program agrees with itself:

* :func:`gimli_spec` is Gimli as printed in the CHES 2017 paper's C
  reference (rounds counted down from 24; a reduced permutation runs the
  first ``rounds`` of them, the convention ``repro`` documents);
* :data:`DESIGNER_INPUT` / :data:`DESIGNER_OUTPUT` are the designers'
  own test vector for the full 24-round permutation;
* :func:`hash_block_spec` and :func:`cipher_c0_spec` rebuild the two
  observables of the paper's section 4 byte by byte from the NIST LWC
  Gimli-Hash and Gimli-Cipher descriptions;
* the check functions compare workload outputs against these anchors
  and against the paper's Table 2 figure, and raise :class:`CheckFailed`.

The checks take plain values, so the benchmark's tests can feed them
corrupted outputs and see them fail.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

MASK32 = 0xFFFFFFFF

#: The designers' test vector: word ``i`` of the input is
#: ``i^3 + i * 0x9e3779b9`` (mod 2^32) ...
DESIGNER_INPUT = tuple((i * i * i + i * 0x9E3779B9) & MASK32 for i in range(12))
#: ... and this is the state after all 24 rounds.
DESIGNER_OUTPUT = (
    0xBA11C85A, 0x91BAD119, 0x380CE880, 0xD24C2C68,
    0x3ECEFFEA, 0x277A921C, 0x4F73A0BD, 0xDA5A9CD8,
    0x84B673F0, 0x34E52FF7, 0x9E2BEF49, 0xF41BB8D6,
)

#: Gimli-Hash 6-round validation accuracy printed in the paper's Table 2.
PAPER_HASH_R6_ACCURACY = 0.9689

#: Standard errors allowed between the random-oracle accuracy and 1/t.
#: The check runs once per benchmark run; at 3 a correct program fails
#: one seed in 370 (two-sided normal tail), which over the ~50 checked
#: runs of one acceptance would reject correct code about one time in
#: eight.  At 4 it fails one seed in 16,000, while a swapped oracle or a
#: constant predictor still lands dozens of standard errors away.
RANDOM_ORACLE_SIGMAS = 4.0


class CheckFailed(AssertionError):
    """A workload output disagrees with its anchor."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & MASK32


def gimli_spec(state: Sequence[int], rounds: int = 24) -> list:
    """The first ``rounds`` rounds (24 down) of Gimli on 12 words."""
    s = [int(w) & MASK32 for w in state]
    for r in range(24, 24 - rounds, -1):
        for column in range(4):
            x = _rotl(s[column], 24)
            y = _rotl(s[4 + column], 9)
            z = s[8 + column]
            s[8 + column] = (x ^ (z << 1) ^ ((y & z) << 2)) & MASK32
            s[4 + column] = (y ^ x ^ ((x | z) << 1)) & MASK32
            s[column] = (z ^ y ^ ((x & y) << 3)) & MASK32
        if r & 3 == 0:  # small swap, then the round constant
            s[0], s[1], s[2], s[3] = s[1], s[0], s[3], s[2]
            s[0] ^= 0x9E377900 | r
        elif r & 3 == 2:  # big swap
            s[0], s[1], s[2], s[3] = s[2], s[3], s[0], s[1]
    return s


def _words_to_bytes(words: Iterable[int]) -> bytearray:
    out = bytearray()
    for word in words:
        out += int(word).to_bytes(4, "little")
    return out


def _bytes_to_words(data: bytes) -> list:
    return [int.from_bytes(data[i:i + 4], "little") for i in range(0, len(data), 4)]


def _permute_bytes(state: bytearray, rounds: int) -> bytearray:
    return _words_to_bytes(gimli_spec(_bytes_to_words(state), rounds))


def hash_block_spec(block_words: Sequence[int], block_len: int, rounds: int) -> list:
    """First 128-bit squeeze of Gimli-Hash on one short message block.

    ``block_words`` packs the message little-endian into four words, as
    the Gimli-Hash scenario feeds it.  Padding: ``0x01`` after the
    message and ``0x01`` into the last state byte, then one permutation.
    """
    message = bytes(_words_to_bytes(block_words)[:block_len])
    state = bytearray(48)
    for i, byte in enumerate(message):
        state[i] ^= byte
    state[block_len] ^= 0x01
    state[47] ^= 0x01
    return _bytes_to_words(_permute_bytes(state, rounds)[:16])


def cipher_c0_spec(nonce_words: Sequence[int], key_words: Sequence[int],
                   total_rounds: int) -> list:
    """First ciphertext block of Gimli-Cipher with empty associated data.

    The state starts as ``nonce || key`` and is permuted; the empty
    associated-data block is padded like a hash block and permuted; the
    first message block is zero, so ``c0`` is the rate.  The total round
    budget is split ``ceil(R/2)`` / ``floor(R/2)`` over the two calls.
    """
    state = _words_to_bytes(nonce_words) + _words_to_bytes(key_words)
    first = (total_rounds + 1) // 2
    state = _permute_bytes(state, first)
    state[0] ^= 0x01
    state[47] ^= 0x01
    state = _permute_bytes(state, total_rounds - first)
    return _bytes_to_words(state[:16])


# -- checks -----------------------------------------------------------------


def check_designer_vector(output: Sequence[int]) -> None:
    """The program's 24-round permutation reproduces the designers' vector."""
    require(
        tuple(int(w) for w in output) == DESIGNER_OUTPUT,
        "gimli_permute_batch does not reproduce the designers' test vector",
    )


def check_rows(outputs, references, what: str) -> None:
    """Every sampled output row equals its reference row."""
    require(len(outputs) == len(references) and len(outputs) > 0,
            f"{what}: no sampled rows to compare")
    for row, (got, want) in enumerate(zip(outputs, references)):
        require(
            [int(w) for w in got] == [int(w) for w in want],
            f"{what}: row {row} differs from the specification "
            f"({[hex(int(w)) for w in got]} != {[hex(w) for w in want]})",
        )


def binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def check_table2_accuracy(accuracy: float, n_validation: int) -> None:
    """Validation accuracy is no more than 3 SE below the paper's 0.9689."""
    floor = PAPER_HASH_R6_ACCURACY - 3.0 * binomial_se(
        PAPER_HASH_R6_ACCURACY, n_validation
    )
    require(
        accuracy >= floor,
        f"validation accuracy {accuracy:.4f} is below the paper's "
        f"{PAPER_HASH_R6_ACCURACY} minus 3 SE ({floor:.4f})",
    )


def check_random_accuracy(accuracy: float, n: int, num_classes: int) -> None:
    """Accuracy against the random oracle is 1/t up to sampling noise."""
    base = 1.0 / num_classes
    slack = RANDOM_ORACLE_SIGMAS * binomial_se(base, n)
    require(
        abs(accuracy - base) <= slack,
        f"random-oracle accuracy {accuracy:.4f} is more than "
        f"{RANDOM_ORACLE_SIGMAS:g} SE ({slack:.4f}) from 1/t = {base:.4f}",
    )


def check_verdicts(cipher_verdict: str, random_verdict: str) -> None:
    require(cipher_verdict == "CIPHER",
            f"verdict against the cipher oracle is {cipher_verdict!r}")
    require(random_verdict == "RANDOM",
            f"verdict against the random oracle is {random_verdict!r}")


def check_search(scores, masks, allowed, paper_scores, noise_floor) -> None:
    """Ranked search output is well-formed and beats the injected seeds.

    ``scores``/``masks`` are the ranked top-k, best first; ``allowed`` is
    the per-word bit mask the search was restricted to.
    """
    scores = [float(s) for s in scores]
    require(bool(scores), "search returned no ranked differences")
    require(all(0.0 <= s <= 1.0 for s in scores),
            f"a bias score lies outside [0, 1]: {scores}")
    require(scores == sorted(scores, reverse=True),
            f"ranked scores are not in descending order: {scores}")
    best = scores[0]
    require(best >= max(paper_scores),
            f"best score {best:.5f} is below the injected paper "
            f"difference's {max(paper_scores):.5f}")
    require(best > noise_floor,
            f"best score {best:.5f} is not above the noise floor "
            f"{noise_floor:.5f}")
    keys = [tuple(int(w) for w in mask) for mask in masks]
    require(len(set(keys)) == len(keys), f"top-k masks repeat: {keys}")
    for mask in keys:
        require(any(mask), "a ranked mask is zero")
        require(all(w & ~int(a) == 0 for w, a in zip(mask, allowed)),
                f"mask {[hex(w) for w in mask]} leaves the allowed bits")
