"""Independent numeric evaluator for the product of exponentials.

The library assembles the group law once, symbolically.  This module
evaluates the same series numerically, point by point, straight from the
textbook form: a sum over block sequences ((p_1, q_1), ..., (p_m, q_m))
with p_i + q_i >= 1, weighted by

    (-1)^(m-1) / (m * w * prod_i p_i! q_i!)      with w = sum_i (p_i + q_i),

each block sequence contributing the right-nested bracket of its letter
expansion (x repeated p_1 times, y q_1 times, and so on).  Nesting deeper
than the step vanishes, so the sum is finite.  Many block sequences
expand to the same letter word (15,759 sequences, 510 words at step 8),
so the weights are summed per word first and each word is bracketed
once.  Everything runs over Fractions; agreement with the library is
exact, not approximate.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial


def _block_sequences(step):
    """All ((p1, q1), ..., (pm, qm)) with pi + qi >= 1 and total letters <= step."""
    out = []

    def extend(prefix, used):
        if prefix:
            out.append(tuple(prefix))
        for p in range(0, step - used + 1):
            for q in range(0, step - used - p + 1):
                if p + q == 0:
                    continue
                prefix.append((p, q))
                extend(prefix, used + p + q)
                prefix.pop()

    extend([], 0)
    return out


@lru_cache(maxsize=None)
def _word_weights(step):
    """{letter word: summed weight} over the block sequences of the step,
    words as strings of "x" and "y"; words whose weights cancel are left out."""
    weights = {}
    for blocks in _block_sequences(step):
        m = len(blocks)
        denom = m * sum(p + q for p, q in blocks)
        for p, q in blocks:
            denom *= factorial(p) * factorial(q)
        word = "".join("x" * p + "y" * q for p, q in blocks)
        weights[word] = weights.get(word, 0) + Fraction((-1) ** (m - 1), denom)
    return {word: w for word, w in weights.items() if w}


def _nested_bracket(alg, letters):
    """Right-nested bracket of a letter list, folded with the algebra bracket."""
    acc = letters[-1]
    for vec in reversed(letters[:-1]):
        acc = alg.bracket(vec, acc)
    return acc


def bch_numeric(alg, x, y):
    """z with exp(z) = exp(x) exp(y), evaluated term by term over Fractions."""
    vectors = {"x": tuple(Fraction(c) for c in x), "y": tuple(Fraction(c) for c in y)}
    total = [Fraction(0)] * alg.n
    for word, weight in _word_weights(alg.step).items():
        term = _nested_bracket(alg, [vectors[c] for c in word])
        for i in range(alg.n):
            total[i] += weight * term[i]
    return tuple(total)
