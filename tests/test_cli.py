"""Tests for the ``python -m repro`` command-line interface.

Most subcommands are exercised in-process through ``main(argv)``; the
``serve`` subcommand is smoke-tested as a real subprocess (start the server,
submit one composition over HTTP, assert byte-identity with direct
``compose()`` — the same contract CI's service smoke step runs).
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.catalog import MappingCatalog
from repro.compose.composer import compose
from repro.engine import ChainGrower
from repro.literature.problems import problem_by_name
from repro.textio.format import problem_to_text
from repro.textio.records import chain_to_text, result_from_text

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "catalog-root")


@pytest.fixture()
def record_files(tmp_path):
    chain = ChainGrower(seed=13, schema_size=4).grow_many(4)
    problem = problem_by_name("example1_movies").problem
    chain_file = tmp_path / "history.txt"
    chain_file.write_text(chain_to_text(chain, name="history"))
    problem_file = tmp_path / "ex1.txt"
    problem_file.write_text(problem_to_text(problem))
    return {"chain": str(chain_file), "problem": str(problem_file)}


class TestCatalogCommands:
    def test_add_list_show(self, root, record_files, capsys):
        assert main(["--root", root, "catalog", "add",
                     record_files["chain"], record_files["problem"]]) == 0
        out = capsys.readouterr().out
        assert "chain/history v1" in out
        assert "problem/example1_movies v1" in out

        assert main(["--root", root, "catalog", "list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert {entry["kind"] for entry in listing} == {"chain", "problem"}

        assert main(["--root", root, "catalog", "show", "chain", "history"]) == 0
        shown = capsys.readouterr().out
        assert shown == MappingCatalog(root).text("chain", "history")

    def test_unknown_entry_fails_cleanly(self, root, capsys):
        assert main(["--root", root, "catalog", "show", "mapping", "missing"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, root, capsys):
        assert main(["--root", root, "catalog", "add", "no-such-file.txt"]) == 1
        assert "error:" in capsys.readouterr().err


class TestComposeCommand:
    def test_compose_problem_file(self, root, record_files, capsys):
        assert main(["--root", root, "compose", record_files["problem"],
                     "--store", "ex1-result"]) == 0
        captured = capsys.readouterr()
        result = result_from_text(captured.out)
        direct = compose(problem_by_name("example1_movies").problem)
        assert result.constraints.to_text() == direct.constraints.to_text()
        assert "stored result/ex1-result v1" in captured.err
        assert MappingCatalog(root).get_result("ex1-result") == result

    def test_compose_stored_chain_is_warm_on_second_run(self, root, record_files, capsys):
        assert main(["--root", root, "catalog", "add", record_files["chain"]]) == 0
        capsys.readouterr()
        assert main(["--root", root, "compose", "--name", "history", "--kind", "chain"]) == 0
        first = capsys.readouterr()
        assert "reused hops: 0/3" in first.err
        assert main(["--root", root, "compose", "--name", "history", "--kind", "chain"]) == 0
        second = capsys.readouterr()
        assert "reused hops: 3/3" in second.err  # persistent checkpoints
        assert second.out == first.out  # byte-identical composed mapping

    def test_compose_without_input_fails(self, root, capsys):
        assert main(["--root", root, "compose"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCatalogGCCommand:
    def test_gc_bounds_checkpoints_and_prefix_reuse_survives(self, root, record_files, capsys):
        assert main(["--root", root, "catalog", "add", record_files["chain"]]) == 0
        assert main(["--root", root, "compose", "--name", "history", "--kind", "chain"]) == 0
        capsys.readouterr()
        checkpoint_dir = Path(root) / "checkpoints"
        assert len(list(checkpoint_dir.glob("*.ckpt"))) == 3

        assert main(["--root", root, "catalog", "gc",
                     "--max-checkpoint-files", "1", "--dry-run", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True
        assert report["checkpoints"]["removed"] == 2
        assert len(list(checkpoint_dir.glob("*.ckpt"))) == 3  # dry run

        assert main(["--root", root, "catalog", "gc",
                     "--max-checkpoint-files", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checkpoints"] == {"examined": 3, "removed": 2, "retained": 1}
        assert len(list(checkpoint_dir.glob("*.ckpt"))) == 1

        # The retained (deepest) checkpoint still covers the whole chain.
        assert main(["--root", root, "compose", "--name", "history", "--kind", "chain"]) == 0
        assert "reused hops: 3/3" in capsys.readouterr().err

    def test_gc_prunes_old_result_versions(self, root, record_files, capsys):
        assert main(["--root", root, "compose", record_files["problem"],
                     "--store", "r"]) == 0
        capsys.readouterr()
        catalog = MappingCatalog(root)
        catalog.put_result("r", compose(problem_by_name("glav_chain").problem))
        assert len(catalog.versions("result", "r")) == 2
        assert main(["--root", root, "catalog", "gc", "--keep-result-versions", "1"]) == 0
        out = capsys.readouterr().out
        assert "results:     removed 1" in out
        assert [e.version for e in MappingCatalog(root).versions("result", "r")] == [2]


class TestBadGcBounds:
    """Every GC entry point refuses a bad bound with one ``error:`` line."""

    @pytest.mark.parametrize(
        "command",
        [
            ["catalog", "gc", "--max-checkpoint-files", "-1"],
            ["catalog", "gc", "--checkpoint-max-age", "-1"],
            ["catalog", "gc", "--result-max-age", "-1"],
            ["catalog", "gc", "--keep-result-versions", "0"],
            ["catalog", "gc", "--chain-max-age", "-1"],
            ["catalog", "gc", "--keep-chain-versions", "0"],
            ["catalog", "gc", "--journal-max-segments", "0"],
            ["catalog", "gc", "--journal-max-age", "-1"],
            ["catalog", "gc", "--grace", "-1"],
            ["serve", "--port", "0", "--gc-max-checkpoint-files", "-1"],
            ["serve", "--port", "0", "--gc-checkpoint-max-age", "-1"],
            ["serve", "--port", "0", "--gc-result-max-age", "-1"],
            ["serve", "--port", "0", "--gc-grace", "-1"],
        ],
    )
    def test_refused_before_the_root_is_opened(self, root, command, capsys):
        assert main(["--root", root, *command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not Path(root).exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["catalog", "gc", "--max-checkpoint-files", "-1"],
            ["serve", "--port", "0", "--gc-max-checkpoint-files", "-1"],
        ],
    )
    def test_no_traceback_from_a_real_process(self, root, command):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        finished = subprocess.run(
            [sys.executable, "-m", "repro", "--root", root, *command],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert finished.returncode == 1
        assert finished.stderr == (
            "error: checkpoint_max_files must be non-negative, not -1\n"
        )


class TestBadIntervals:
    """A NaN interval is refused at start-up, before any thread starts."""

    @pytest.mark.parametrize(
        "command",
        [
            ["serve", "--port", "0", "--follow", "{primary}", "--follow-poll", "nan"],
            [
                "serve", "--port", "0", "--follow", "{primary}",
                "--election", "{election}", "--election-timeout", "nan",
            ],
            ["serve", "--port", "0", "--deadline", "nan"],
            ["serve", "--port", "0", "--timeout", "-1"],
            ["route", "--port", "0", "--backend", "http://127.0.0.1:9", "--health-interval", "nan"],
        ],
    )
    def test_refused_with_no_thread_left_behind(
        self, root, tmp_path, command, capsys, monkeypatch
    ):
        from repro import obs
        from repro.service import RouterHTTPServer, ServiceHTTPServer

        def never_serve(server):
            raise AssertionError("the bad setting was not refused at start-up")

        # Serving would block the test: reaching it fails the test instead.
        monkeypatch.setattr(ServiceHTTPServer, "serve_forever", never_serve)
        monkeypatch.setattr(RouterHTTPServer, "serve_forever", never_serve)
        primary = MappingCatalog(tmp_path / "primary").root
        argv = [
            part.format(primary=primary, election=tmp_path / "election") for part in command
        ]
        before = set(threading.enumerate())
        try:
            assert main(["--root", root, *argv]) == 1
        finally:
            obs.configure(service="", log_path=None)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not [
            thread.name
            for thread in set(threading.enumerate()) - before
            if thread.name.startswith("repro-")
        ]


class TestServeOptions:
    def test_serve_offers_no_pool_flags(self, root, capsys):
        # Batches always run in-process and each request runs on the thread
        # that waits for it, so nothing selects or sizes a pool or a batch;
        # a peer's lease is always waited on for four TTLs.
        with pytest.raises(SystemExit) as exited:
            main(["--root", root, "serve", "--help"])
        assert exited.value.code == 0
        usage = capsys.readouterr().out
        assert "--max-pending" in usage
        assert "--lease-ttl" in usage
        assert "--micro-batch-size" not in usage
        assert "--micro-batch-wait" not in usage
        assert "--backend" not in usage
        assert "--max-workers" not in usage
        assert "--lease-wait" not in usage
        for flag in (["--backend", "serial"], ["--lease-wait", "1"]):
            with pytest.raises(SystemExit) as exited:
                main(["--root", root, "serve", *flag])
            assert exited.value.code == 2


class TestMetricsCommand:
    def test_prints_what_the_target_serves(self, tmp_path, capsys):
        from repro.service import (
            CompositionService,
            RouterHTTPServer,
            ServiceConfig,
            ServiceHTTPServer,
        )

        service = CompositionService(
            MappingCatalog(tmp_path / "root"), ServiceConfig()
        )
        service.start()
        server = ServiceHTTPServer(service, port=0).start()
        backend = "http://{}:{}".format(*server.address)
        router = RouterHTTPServer([backend], port=0, health_interval_seconds=30).start()
        try:
            assert main(["metrics", backend]) == 0
            out = capsys.readouterr().out
            assert "# /metrics" in out and "# /router/status" not in out
            assert main(["metrics", "http://{}:{}".format(*router.address)]) == 0
            out = capsys.readouterr().out
            assert "# /metrics" in out and "# /router/status" in out
            assert main(["metrics", backend, "--prometheus"]) == 0
            assert "repro_requests_completed" in capsys.readouterr().out
        finally:
            router.stop()
            server.stop()
            service.stop()
        assert main(["metrics", backend, "--timeout", "2"]) == 1
        assert "cannot fetch" in capsys.readouterr().err


def _spawn_serve(root: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "--root", root, "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    assert "http://" in line, f"unexpected banner: {line!r}"
    return process, line.strip().rsplit(" ", 1)[-1]


def _stop(process: subprocess.Popen) -> None:
    process.terminate()
    process.wait(timeout=10)
    process.stdout.close()


def _post_compose(base: str, body: bytes, query: str = "") -> str:
    deadline = time.time() + 30
    while True:
        try:
            request = urllib.request.Request(
                base + "/compose" + query, data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.read().decode()
        except (urllib.error.URLError, ConnectionError):
            if time.time() > deadline:
                raise
            time.sleep(0.1)


class TestServeSubprocess:
    def test_serve_smoke_byte_identical(self, root):
        process, base = _spawn_serve(root)
        try:
            problem = problem_by_name("example1_movies").problem
            served = result_from_text(_post_compose(base, problem_to_text(problem).encode()))
            direct = compose(problem)
            assert served.constraints.to_text() == direct.constraints.to_text()
        finally:
            _stop(process)

    def test_two_servers_share_one_catalog(self, root):
        """CI's shared-catalog smoke: two serve processes on one root,
        interleaved composes byte-identical to direct compose, and writes by
        either server visible to both."""
        chain = ChainGrower(seed=13, schema_size=4).grow_many(4)
        chain_body = chain_to_text(chain, name="history").encode()
        problem = problem_by_name("example1_movies").problem
        problem_body = problem_to_text(problem).encode()

        first, first_base = _spawn_serve(root)
        second, second_base = _spawn_serve(root)
        try:
            direct_problem = compose(problem)
            # Interleave requests across the two processes.
            a = _post_compose(first_base, problem_body)
            b = _post_compose(second_base, chain_body, "?store=composed")
            c = _post_compose(second_base, problem_body)
            d = _post_compose(first_base, chain_body, "?store=composed")
            assert (
                result_from_text(a).constraints.to_text()
                == result_from_text(c).constraints.to_text()
                == direct_problem.constraints.to_text()
            )
            assert b == d  # byte-identical composed mapping across processes

            # Both stored the identical mapping: content addressing dedupes
            # across processes, so one version exists (no lost/duped writes).
            deadline = time.time() + 30
            while True:
                try:
                    with urllib.request.urlopen(
                        second_base + "/catalog/mapping/composed", timeout=30
                    ) as response:
                        stored = response.read().decode()
                    break
                except (urllib.error.URLError, ConnectionError):
                    if time.time() > deadline:
                        raise
                    time.sleep(0.1)
            assert stored
            versions = MappingCatalog(root).versions("mapping", "composed")
            assert [entry.version for entry in versions] == [1]
        finally:
            for process in (first, second):
                _stop(process)
