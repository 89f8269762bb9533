"""`Labeling.get`, the read-only accessor validators and solvers use,
and iteration over the stored node ids."""

from itertools import islice

import repro.graphs.labelings as labelings_module
from repro.graphs.generators import leaf_coloring_instance
from repro.graphs.labelings import Labeling, NodeLabel


def labeled():
    return Labeling({0: NodeLabel(parent=1, color="R"), 3: NodeLabel()})


class TestGet:
    def test_hit_returns_the_stored_object(self):
        labeling = labeled()
        stored = labeling[0]
        assert labeling.get(0) is stored
        assert labeling.get(3) is labeling.get(3)

    def test_miss_returns_a_fresh_empty_label_without_inserting(self):
        labeling = labeled()
        first = labeling.get(7)
        assert first == NodeLabel()
        assert 7 not in labeling
        assert len(labeling) == 2
        first.color = "B"  # the caller owns it: no later read sees this
        second = labeling.get(7)
        assert second is not first
        assert second == NodeLabel()
        assert 7 not in labeling

    def test_hit_builds_no_label(self, monkeypatch):
        built = []

        class Counting(NodeLabel):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        labeling = labeled()
        monkeypatch.setattr(labelings_module, "NodeLabel", Counting)
        for _ in range(3):
            labeling.get(0)
        assert built == []
        assert isinstance(labeling.get(9), Counting)
        assert built == [1]

    def test_getitem_still_inserts_on_miss(self):
        labeling = labeled()
        label = labeling[7]
        assert 7 in labeling
        assert labeling.get(7) is label


class TestIter:
    def test_iteration_yields_the_stored_node_ids_and_inserts_nothing(self):
        # Bounded read: iteration that fell back to __getitem__(0),
        # (1), ... would yield one extra item and grow the labeling.
        labeling = leaf_coloring_instance(1).labeling
        size = len(labeling)
        items = list(islice(iter(labeling), size + 1))
        assert items == list(labeling.nodes())
        assert len(items) == size
        assert len(labeling) == size
