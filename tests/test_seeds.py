import hashlib

import numpy as np
import pytest

from lobmix.seeds import MAX_SEED, make_rng


def draws(*address):
    return make_rng(*address).integers(0, 2**63, size=16)


class TestMakeRng:
    def test_same_address_same_draws(self):
        assert np.array_equal(draws(7, "batch", 3), draws(7, "batch", 3))
        assert np.array_equal(draws(MAX_SEED, "init"), draws(MAX_SEED, "init"))

    # pytest names a tuple by its place in the list, so the cases carry explicit ids (the names
    # they had): removing one renames no other
    @pytest.mark.parametrize(
        "other",
        [
            pytest.param((8, "batch", 3), id="other0"),
            pytest.param((7, "batchx", 3), id="other1"),
            pytest.param((7, "init", 3), id="other2"),
            pytest.param((7, "batch", 4), id="other3"),
            pytest.param((7, "batch"), id="other6"),
            pytest.param((7, "batch", MAX_SEED), id="other7"),
        ],
    )
    def test_any_changed_word_changes_draws(self, other):
        assert not np.array_equal(draws(7, "batch", 3), draws(*other))

    def test_counter_words_do_not_shift_into_each_other(self):
        # the root is hashed into the key and the counter fills a counter word: (r, c) and (c, r) differ
        assert not np.array_equal(draws(1, "batch", 2), draws(2, "batch", 1))

    def test_layout(self):
        # the documented key and counter layout; changing it needs a new RNG_LAYOUT
        digest = hashlib.sha256(bytes([0, 0, 0, 0, 0, 0, 0, 1]) + b"batch").digest()
        for address, counter in (((1, "batch"), 0), ((1, "batch", 2), 2)):
            state = make_rng(*address).bit_generator.state
            assert state["bit_generator"] == "Philox"
            assert state["state"]["key"].tolist() == [int.from_bytes(digest[k:k + 8], "little") for k in (0, 8)]
            assert state["state"]["counter"].tolist() == [0, counter, 0, 0]

    @pytest.mark.parametrize("root", [-1, MAX_SEED + 1])
    def test_root_out_of_range_rejected(self, root):
        with pytest.raises(ValueError, match="root seed must fit in 64 bits"):
            make_rng(root, "batch")

    @pytest.mark.parametrize("root", [True, 1.0, "1", np.int64(1)])
    def test_root_of_wrong_type_rejected(self, root):
        with pytest.raises(TypeError, match="root seed must be an int"):
            make_rng(root, "batch")

    @pytest.mark.parametrize("word", [-1, MAX_SEED + 1])
    def test_counter_out_of_range_rejected(self, word):
        with pytest.raises(ValueError, match="counter word must fit in 64 bits"):
            make_rng(0, "batch", word)

    @pytest.mark.parametrize("word", [True, False, 1.0, "1", None])
    def test_counter_of_wrong_type_rejected(self, word):
        with pytest.raises(TypeError, match="counter word must be an int"):
            make_rng(0, "batch", word)
