import pytest
from hypothesis import given, settings, strategies as st

from qfsurface.words import expand, invert_word, multiply, reduce_word, substitute

NUM_GENERATORS = 4
letters = st.integers(1, NUM_GENERATORS).flatmap(lambda g: st.sampled_from([g, -g]))
words = st.lists(letters, max_size=12).map(tuple)
images = st.fixed_dictionaries({g: words for g in range(1, NUM_GENERATORS + 1)})
fixed_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@fixed_settings
@given(u=words, v=words, image=images)
def test_expand_is_a_homomorphism(u, v, image):
    assert expand(u + v, image) == multiply(expand(u, image), expand(v, image))
    assert expand(invert_word(u), image) == invert_word(expand(u, image))


@fixed_settings
@given(u=words, image=images)
def test_expand_reduces_the_concatenated_images(u, image):
    naive = [piece for letter in u
             for piece in (image[letter] if letter > 0 else invert_word(image[-letter]))]
    assert expand(u, image) == reduce_word(naive)
    identity = {g: (g,) for g in range(1, NUM_GENERATORS + 1)}
    assert expand(u, identity) == reduce_word(u)


@fixed_settings
@given(u=words, replacement=words)
def test_substitute_is_expand_with_one_generator_moved(u, replacement):
    image = {g: (g,) for g in range(1, NUM_GENERATORS + 1)}
    image[2] = replacement
    assert substitute(u, 2, replacement) == expand(u, image)


def test_generator_without_image_is_a_key_error():
    with pytest.raises(KeyError):
        expand((1, -2), {1: (3,)})
