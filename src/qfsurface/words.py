"""Freely reduced words over an integer alphabet.

A word is a tuple of nonzero ints; the letter -k is the inverse of k.
"""

from __future__ import annotations

import itertools
from collections import deque

__all__ = [
    "reduce_word",
    "invert_word",
    "multiply",
    "cyclic_reduce",
    "expand",
    "rotate",
    "reduced_words_up_to",
]


def reduce_word(letters):
    """Freely reduce, cancelling adjacent inverse pairs."""
    out = []
    for letter in letters:
        if letter == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word):
    return tuple(-letter for letter in reversed(word))


def multiply(*words):
    return reduce_word(itertools.chain.from_iterable(words))


def cyclic_reduce(word):
    """Freely reduce, then strip matching first/last letters."""
    word = list(reduce_word(word))
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return tuple(word)


def rotate(word, k):
    k %= max(len(word), 1)
    return word[k:] + word[:k]


def expand(word, image):
    """Image of the word under the homomorphism sending each generator g to
    the word image[g] (and g^-1 to its inverse), freely reduced.

    A generator with no image is a KeyError.
    """
    return reduce_word(
        piece
        for letter in word
        for piece in (image[letter] if letter > 0 else invert_word(image[-letter]))
    )


def reduced_words_up_to(num_generators, max_length):
    """Breadth-first enumeration of freely reduced words of length <= max_length.

    Yields words in length order, lexicographic within a length (alphabet
    order 1 < -1 < 2 < -2 < ...).  The empty word is not yielded.
    """
    alphabet = []
    for g in range(1, num_generators + 1):
        alphabet.extend((g, -g))
    queue = deque()
    for letter in alphabet:
        queue.append((letter,))
    while queue:
        word = queue.popleft()
        yield word
        if len(word) < max_length:
            last = word[-1]
            for letter in alphabet:
                if letter != -last:
                    queue.append(word + (letter,))
