"""CLI handlers must close the backends they construct — on every path.

A string ``--backend`` spec makes the handler construct (and therefore
own) a backend; the ExitStack in each handler guarantees ``close()``
runs even when the handler bails out through an early ``_fail`` return.
These tests monkeypatch the backend factory with a tracking double and
drive each handler down its early-exit paths — the regression suite for
the pool leaks ``repro mc --quick`` and ``repro sweep`` used to have.
The same holds for the result store a ``--store`` flag (or a service's
``store`` setting) opens: its owner closes its connection.
"""

import pytest

import repro.corpus as corpus_module
import repro.exec.backends as backends_module
from repro.cli import main
from repro.corpus import ResultStore, ResultStoreError
from repro.exec.backends import SerialBackend


class TrackingBackend(SerialBackend):
    """A serial backend that remembers whether close() ever ran."""

    def __init__(self):
        super().__init__()
        self.close_calls = 0

    def close(self):
        self.close_calls += 1
        super().close()


@pytest.fixture()
def tracked(monkeypatch):
    """Route every CLI backend construction to one tracking instance."""
    backend = TrackingBackend()
    monkeypatch.setattr(
        backends_module, "get_backend", lambda spec=None: backend
    )
    return backend


class TestMcLifecycle:
    def test_bad_param_early_exit_still_closes(self, tracked, capsys):
        code = main([
            "mc", "cycle/2-coloring", "--param", "'junk'", "--quick",
        ])
        assert code == 2
        assert "rejected param" in capsys.readouterr().err
        assert tracked.close_calls == 1

    def test_success_path_closes(self, tracked, capsys):
        code = main([
            "mc", "cycle/2-coloring", "--param", "8", "--quick",
            "--max-trials", "4", "--min-trials", "4", "--json",
        ])
        assert code == 0
        assert tracked.close_calls == 1


class TestRunLifecycle:
    def test_bad_param_early_exit_still_closes(self, tracked, capsys):
        code = main(["run", "cycle/2-coloring", "--param", "'junk'"])
        assert code == 2
        assert "rejected param" in capsys.readouterr().err
        assert tracked.close_calls == 1

    def test_success_path_closes(self, tracked, capsys):
        code = main(["run", "cycle/2-coloring", "--param", "8", "--json"])
        assert code == 0
        assert tracked.close_calls == 1


class TestSweepLifecycle:
    def test_nothing_to_sweep_still_closes(self, tracked, capsys):
        code = main(["sweep"])
        assert code == 2
        assert "nothing to sweep" in capsys.readouterr().err
        assert tracked.close_calls == 1

    def test_unreadable_store_still_closes(self, tracked, tmp_path, capsys):
        # The leak this file exists for: the store used to be opened in
        # the same try block that constructed the backend, above the
        # close callback, so this exact failure left the pool running.
        bad = tmp_path / "store.sqlite"
        bad.write_text("this is not a sqlite database\n")
        code = main([
            "sweep", "--family", "cycle",
            "--algorithm", "cycle/2-coloring", "--store", str(bad),
        ])
        assert code == 2
        assert tracked.close_calls == 1

    def test_bad_spec_file_still_closes(self, tracked, tmp_path, capsys):
        spec = tmp_path / "specs.json"
        spec.write_text('{"not": "a list"}\n')
        code = main(["sweep", "--spec-file", str(spec)])
        assert code == 2
        assert "JSON list" in capsys.readouterr().err
        assert tracked.close_calls == 1


class TestRunSweepsOwnership:
    """run_sweeps closes backends it constructs, never the caller's."""

    def _spec(self):
        import random

        from repro.exec.sweep import InstanceFamily, SweepSpec
        from repro.graphs.generators import balanced_tree_instance

        family = InstanceFamily(
            "balanced-tree",
            lambda d: balanced_tree_instance(d, rng=random.Random(d)),
            (3,),
        )
        return SweepSpec(
            "walk", "Θ(n)", family,
            measure=lambda instance, param: float(
                instance.graph.num_nodes
            ),
        )

    def test_string_spec_backend_is_closed(self, tracked):
        from repro.exec.sweep import run_sweeps

        run_sweeps([self._spec()], "serial")
        assert tracked.close_calls == 1

    def test_caller_backend_object_is_left_open(self):
        from repro.exec.sweep import run_sweeps

        backend = TrackingBackend()
        run_sweeps([self._spec()], backend)
        assert backend.close_calls == 0
        backend.close()


class TestAdversaryLifecycle:
    def test_run_success_path_closes(self, tracked, capsys):
        code = main([
            "adversary", "run", "prop49/balanced-tree",
            "--budget", "3", "--json",
        ])
        assert code == 0
        assert tracked.close_calls == 1


class TrackingStore(ResultStore):
    """A result store that remembers how often close() ran."""

    def __init__(self, path):
        super().__init__(path)
        self.close_calls = 0

    def close(self):
        self.close_calls += 1
        super().close()


@pytest.fixture()
def stores(monkeypatch):
    """Every result store the code under test constructs, tracked."""
    made = []

    def factory(path):
        store = TrackingStore(path)
        made.append(store)
        return store

    monkeypatch.setattr(corpus_module, "ResultStore", factory)
    return made


class TestStoreLifecycle:
    def test_sweep_success_closes(self, stores, tmp_path, capsys):
        code = main([
            "sweep", "--family", "cycle", "--algorithm", "cycle/2-coloring",
            "--store", str(tmp_path / "r.sqlite"), "--json",
        ])
        assert code == 0
        assert [s.close_calls for s in stores] == [1]

    def test_sweep_early_exits_close(self, stores, tmp_path, capsys):
        spec = tmp_path / "specs.json"
        spec.write_text('{"not": "a list"}\n')
        store = str(tmp_path / "r.sqlite")
        assert main(["sweep", "--store", store]) == 2
        assert main(["sweep", "--spec-file", str(spec), "--store", store]) == 2
        assert [s.close_calls for s in stores] == [1, 1]

    def test_mc_success_closes(self, stores, tmp_path, capsys):
        code = main([
            "mc", "cycle/2-coloring", "--param", "8", "--quick",
            "--max-trials", "4", "--min-trials", "4", "--json",
            "--store", str(tmp_path / "r.sqlite"),
        ])
        assert code == 0
        assert [s.close_calls for s in stores] == [1]

    def test_mc_store_error_closes(
        self, stores, tmp_path, capsys, monkeypatch
    ):
        # An error raised inside run_trials, after the store opened.
        def unreadable(self, run_key):
            raise ResultStoreError("stored trials are unreadable")

        monkeypatch.setattr(ResultStore, "trial_records", unreadable)
        code = main([
            "mc", "cycle/2-coloring", "--param", "8", "--quick",
            "--store", str(tmp_path / "r.sqlite"),
        ])
        assert code == 2
        assert "unreadable" in capsys.readouterr().err
        assert [s.close_calls for s in stores] == [1]

    def test_corpus_list_store_closes(
        self, stores, make_corpus, tmp_path, capsys
    ):
        corpus = make_corpus(tmp_path / "corpus")
        code = main([
            "corpus", "list", "--root", str(corpus.root),
            "--store", str(tmp_path / "r.sqlite"), "--json",
        ])
        assert code == 0
        assert [s.close_calls for s in stores] == [1]

    def test_service_stop_closes_its_store(self, stores, tmp_path):
        from repro.serve.service import ServeConfig, ServerThread

        with ServerThread(
            ServeConfig(port=0, store=str(tmp_path / "r.sqlite"))
        ):
            assert [s.close_calls for s in stores] == [0]
        assert [s.close_calls for s in stores] == [1]
