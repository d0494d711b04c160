import hashlib

import numpy as np
import pytest

from lobmix.seeds import MAX_SEED, make_rng


def draws(*address):
    return make_rng(*address).integers(0, 2**63, size=16)


class TestMakeRng:
    def test_same_address_same_draws(self):
        assert np.array_equal(draws(7, "batch", 3, 4), draws(7, "batch", 3, 4))
        assert np.array_equal(draws(MAX_SEED, "init"), draws(MAX_SEED, "init"))

    @pytest.mark.parametrize(
        "other",
        [
            (8, "batch", 3, 4),
            (7, "batchx", 3, 4),
            (7, "init", 3, 4),
            (7, "batch", 4, 4),
            (7, "batch", 3, 5),
            (7, "batch", 3, 4, 1),
            (7, "batch", 3),
            (7, "batch", MAX_SEED, 4),
        ],
    )
    def test_any_changed_word_changes_draws(self, other):
        assert not np.array_equal(draws(7, "batch", 3, 4), draws(*other))

    def test_counter_words_do_not_shift_into_each_other(self):
        # (e, b) and (b, e) name different batches
        assert not np.array_equal(draws(1, "batch", 2, 3), draws(1, "batch", 3, 2))

    def test_layout(self):
        # the documented key and counter layout; changing it needs a new RNG_LAYOUT
        state = make_rng(1, "batch", 2, 3).bit_generator.state
        digest = hashlib.sha256(bytes([0, 0, 0, 0, 0, 0, 0, 1]) + b"batch").digest()
        assert state["bit_generator"] == "Philox"
        assert state["state"]["key"].tolist() == [int.from_bytes(digest[k:k + 8], "little") for k in (0, 8)]
        assert state["state"]["counter"].tolist() == [0, 2, 3, 0]

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
            make_rng(0, "batch", 0, word)

    @pytest.mark.parametrize("word", [True, False, 1.0, "1", None])
    def test_counter_of_wrong_type_rejected(self, word):
        with pytest.raises(TypeError, match="counter word must be an int"):
            make_rng(0, "batch", word)

    def test_at_most_three_counter_words(self):
        make_rng(0, "batch", 1, 2, 3)
        with pytest.raises(ValueError, match="at most 3 counter words"):
            make_rng(0, "batch", 1, 2, 3, 4)
