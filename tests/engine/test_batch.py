"""Tests for the batch composition engine (:mod:`repro.engine.batch`)."""

import dataclasses
import threading
import time

import pytest

from repro.engine.batch import (
    BatchComposer,
    BatchConfig,
    ProblemStatus,
)
from repro.engine.chain import compose_chain
from repro.engine.workloads import WorkloadConfig, generate_workload, pairwise_problems
from repro.exceptions import EngineError


class TestBatchConfig:
    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_invalid_timeout_rejected(self, timeout):
        with pytest.raises(EngineError):
            BatchConfig(timeout_seconds=timeout)

    def test_config_has_no_pool_knobs(self):
        # Every batch runs in-process; nothing selects or sizes a pool.
        # Nor is there an expression cache, and the checkpoint store and
        # the GC pause take no knob.
        assert [f.name for f in dataclasses.fields(BatchConfig)] == [
            "timeout_seconds",
            "composer_config",
            "share_checkpoints",
            "fail_fast",
        ]
        for knob in ("backend", "share_expression_cache", "pause_gc"):
            with pytest.raises(TypeError):
                BatchConfig(**{knob: True})

    def test_failure_error_includes_traceback(self):
        def bad(_):
            raise ValueError("with traceback")

        report = BatchComposer().map(bad, [1])
        assert "Traceback" in report.failed[0].error
        assert "with traceback" in report.failed[0].error


class TestMap:
    def test_results_in_submission_order(self):
        report = BatchComposer().map(lambda x: x * 10, list(range(8)))
        assert [item.result for item in report.items] == [x * 10 for x in range(8)]
        assert report.all_succeeded

    def test_jobs_run_one_at_a_time_in_the_calling_thread(self):
        events = []

        def job(x):
            events.append(("start", x, threading.get_ident()))
            events.append(("end", x, threading.get_ident()))
            return x

        BatchComposer().map(job, [0, 1, 2])
        caller = threading.get_ident()
        assert events == [
            (phase, x, caller) for x in (0, 1, 2) for phase in ("start", "end")
        ]

    def test_failure_isolation(self):
        def flaky(x):
            if x == 2:
                raise ValueError("boom on 2")
            return x

        report = BatchComposer().map(flaky, [0, 1, 2, 3])
        assert len(report.succeeded) == 3
        assert len(report.failed) == 1
        failed = report.failed[0]
        assert failed.index == 2
        assert failed.status is ProblemStatus.FAILED
        assert "boom on 2" in failed.error
        with pytest.raises(EngineError, match="1/4"):
            report.raise_failures()

    def test_fail_fast_reraises(self):
        def bad(_):
            raise RuntimeError("stop everything")

        composer = BatchComposer(BatchConfig(fail_fast=True))
        with pytest.raises(RuntimeError, match="stop everything"):
            composer.map(bad, [1])

    def test_fail_fast_stops_at_the_first_failure(self):
        ran = []

        def bad(x):
            ran.append(x)
            if x == 1:
                raise KeyError("original type survives")
            return x

        composer = BatchComposer(BatchConfig(fail_fast=True))
        with pytest.raises(KeyError, match="original type survives"):
            composer.map(bad, [0, 1, 2, 3])
        assert ran == [0, 1]

    def test_soft_timeout_classification(self):
        def slow(x):
            if x == 1:
                time.sleep(0.05)
            return x

        composer = BatchComposer(BatchConfig(timeout_seconds=0.02))
        report = composer.map(slow, [0, 1, 2])
        assert len(report.timed_out) == 1
        assert report.timed_out[0].index == 1
        assert report.timed_out[0].result is None
        assert {item.index for item in report.succeeded} == {0, 2}

    def test_soft_timeout_never_interrupts_a_job(self):
        finished = []

        def slow(x):
            time.sleep(0.05)
            finished.append(x)
            return x

        report = BatchComposer(BatchConfig(timeout_seconds=0.01)).map(slow, [0, 1])
        # The budget is checked after the job returns: both ran to the end,
        # and both results were discarded.
        assert finished == [0, 1]
        assert [item.status for item in report.items] == [ProblemStatus.TIMED_OUT] * 2
        assert [item.result for item in report.items] == [None, None]

    def test_label_mismatch_rejected(self):
        composer = BatchComposer()
        with pytest.raises(EngineError, match="labels"):
            composer.map(lambda x: x, [1, 2], labels=["only-one"])


class TestRunChains:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_workload(
            WorkloadConfig(num_problems=8, min_chain_length=4, max_chain_length=5, seed=5)
        )

    def test_payloads_are_chain_results(self, workload):
        report = BatchComposer().run_chains(workload)
        assert report.all_succeeded
        assert report.items[0].label == workload[0].name
        for item, problem in zip(report.items, workload):
            assert item.result.chain_length == problem.chain_length

    def test_batch_matches_one_chain_at_a_time(self, workload):
        report = BatchComposer().run_chains(workload)
        for item, problem in zip(report.items, workload):
            alone = compose_chain(problem.mappings)
            assert item.result.constraints == alone.constraints
            assert item.result.residual_symbols == alone.residual_symbols

    def test_report_statistics(self, workload):
        report = BatchComposer().run_chains(workload)
        assert report.cache_stats is None
        assert len(report) == len(workload)
        assert report.throughput() > 0
        assert report.total_problem_seconds() > 0
        assert 0.0 <= report.mean_fraction_eliminated() <= 1.0
        assert f"{len(workload)}/{len(workload)} problems succeeded" in report.summary()


class TestRun:
    def test_pairwise_problems_compose(self):
        workload = generate_workload(
            WorkloadConfig(num_problems=3, min_chain_length=4, max_chain_length=4, seed=9)
        )
        problems = [p for chain in workload for p in pairwise_problems(chain)]
        report = BatchComposer().run(problems)
        assert report.all_succeeded
        assert report.items[0].label == problems[0].name


def test_acceptance_workload_fifty_problems_zero_crashes():
    """The ISSUE acceptance criterion: >= 50 seeded problems, chain length >= 4,
    through the BatchComposer with zero crashes."""
    workload = generate_workload(
        WorkloadConfig(num_problems=50, min_chain_length=4, max_chain_length=6, seed=2006)
    )
    assert len(workload) >= 50
    assert all(problem.chain_length >= 4 for problem in workload)
    report = BatchComposer().run_chains(workload)
    assert len(report) == 50
    assert report.all_succeeded, report.summary()
