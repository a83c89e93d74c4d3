"""GC grace-window tests.

The window closes a cross-process race: without it, a sweep in one process
can evict a checkpoint (or result version) that a peer wrote moments ago and
is about to read.  Anything younger than ``grace_seconds`` is exempt from
*every* eviction rule — age, LRU count, and version pruning alike.
"""

import json
import os
import time

import pytest

from repro.__main__ import main
from repro.catalog import GcPolicy, MappingCatalog
from repro.compose import compose
from repro.engine import compose_chain
from repro.engine.workloads import WorkloadConfig, generate_workload
from repro.literature.problems import problem_by_name


@pytest.fixture()
def chain():
    problems = generate_workload(
        WorkloadConfig(num_problems=1, min_chain_length=5, max_chain_length=5, seed=3)
    )
    return tuple(problems[0].mappings)


@pytest.fixture()
def catalog(tmp_path, chain):
    catalog = MappingCatalog(tmp_path / "catalog")
    compose_chain(chain, checkpoints=catalog.checkpoints)
    return catalog


def _age_files(paths, seconds):
    stale = time.time() - seconds
    for path in paths:
        os.utime(path, (stale, stale))


class TestCheckpointGrace:
    def test_grace_protects_fresh_checkpoints_from_every_rule(self, catalog):
        hops = catalog.checkpoints.disk_entries()
        assert hops > 0
        # The harshest possible policy — but everything was written just now.
        report = catalog.gc(
            GcPolicy(
                checkpoint_max_files=0,
                checkpoint_max_age_seconds=0.001,
                grace_seconds=60.0,
            )
        )
        assert report["grace_seconds"] == 60.0
        assert report["checkpoints"]["removed"] == 0
        assert catalog.checkpoints.disk_entries() == hops

    def test_zero_grace_restores_unconditional_eviction(self, catalog):
        hops = catalog.checkpoints.disk_entries()
        report = catalog.gc(GcPolicy(checkpoint_max_files=0, grace_seconds=0.0))
        assert report["checkpoints"]["removed"] == hops
        assert catalog.checkpoints.disk_entries() == 0

    def test_grace_does_not_shield_genuinely_old_files(self, catalog):
        files = sorted(catalog.checkpoints.directory.glob("*.ckpt"))
        _age_files(files[:2], 7200)
        report = catalog.gc(GcPolicy(checkpoint_max_age_seconds=3600, grace_seconds=60.0))
        assert report["checkpoints"]["removed"] == 2
        assert catalog.checkpoints.disk_entries() == len(files) - 2

    def test_max_files_only_dooms_aged_files(self, catalog):
        # 2 aged files, the rest fresh: a bound of 1 may evict only the aged
        # ones, so more than max_files can survive inside the grace window.
        files = sorted(catalog.checkpoints.directory.glob("*.ckpt"))
        _age_files(files[:2], 7200)
        report = catalog.gc(GcPolicy(checkpoint_max_files=1, grace_seconds=60.0))
        assert report["checkpoints"]["removed"] == 2
        assert catalog.checkpoints.disk_entries() == len(files) - 2

    def test_negative_grace_is_rejected(self):
        from repro.exceptions import CatalogError

        with pytest.raises(CatalogError):
            GcPolicy(grace_seconds=-1.0)


class TestResultGrace:
    def test_fresh_result_versions_survive_version_pruning(self, tmp_path):
        catalog = MappingCatalog(tmp_path / "catalog")
        catalog.put_result("r", compose(problem_by_name("example1_movies").problem))
        catalog.put_result("r", compose(problem_by_name("glav_chain").problem))
        report = catalog.gc(GcPolicy(result_keep_versions=1, grace_seconds=3600.0))
        assert report["results"]["removed"] == 0
        assert len(catalog.versions("result", "r")) == 2
        # Outside the window the policy applies again.
        report = catalog.gc(GcPolicy(result_keep_versions=1, grace_seconds=0.0))
        assert report["results"]["removed"] == 1
        assert [e.version for e in catalog.versions("result", "r")] == [2]


class TestCLIGrace:
    def test_catalog_gc_grace_flag(self, catalog, capsys):
        root = str(catalog.root)
        hops = catalog.checkpoints.disk_entries()
        assert main(["--root", root, "catalog", "gc", "--max-checkpoint-files", "0",
                     "--grace", "60", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["grace_seconds"] == 60.0
        assert report["checkpoints"]["removed"] == 0
        assert MappingCatalog(root).checkpoints.disk_entries() == hops
