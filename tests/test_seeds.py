import ast
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from lobmix import seeds
from lobmix.seeds import MAX_SEED, RNG_LAYOUT, make_rng

README = Path(__file__).resolve().parents[1] / "README.md"

# The stream names passed to make_rng under each random-stream layout; "analyze:"
# is the prefix of analyze's "analyze:<combo>". Adding or retiring a stream
# changes the draws of some output, so it needs a new RNG_LAYOUT and a new row.
STREAMS = {
    3: {"epoch", "init", "centers", "points", "holdout", "train-pick", "subsample", "analyze:"},
    4: {"epoch", "init", "centers", "points", "holdout", "train-pick", "analyze:"},
}


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


def stream_name(node: ast.expr) -> str:
    """The stream name of a ``make_rng`` name argument: a string, or the string that starts a concatenation."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        node = node.left
    elif isinstance(node, ast.JoinedStr):
        node = node.values[0]
    assert isinstance(node, ast.Constant) and isinstance(node.value, str), ast.dump(node)
    return node.value


class TestStreamLayout:
    @staticmethod
    def streams_in_source() -> set:
        names = set()
        for path in Path(seeds.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                # a name given by keyword fails at args[1], so no call escapes the scan
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "make_rng":
                    names.add(stream_name(node.args[1]))
        return names

    def test_streams_are_those_of_the_layout(self):
        assert self.streams_in_source() == STREAMS[RNG_LAYOUT]

    def test_readme_names_every_stream(self):
        text = " ".join(README.read_text().split())
        sentence = re.search(r"The stream names are (.*?)\. ", text).group(1)
        named = {name.removesuffix("<combo>") for name in re.findall(r'`"([^"`]+)"`', sentence)}
        assert named == STREAMS[RNG_LAYOUT]
