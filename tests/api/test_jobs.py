"""Tests for the unified job model and the single expand() path (repro.api.jobs)."""

import pytest

from repro.api.jobs import Job, JobMatrix, JobSpec, McJobSpec, MonteCarloAxes


class TestHierarchy:
    def test_both_spec_kinds_are_jobs(self):
        assert isinstance(JobSpec(instance="ti:30"), Job)
        assert isinstance(McJobSpec(instance="ti:30"), Job)

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = McJobSpec(instance="ti:30", samples=16, gated=True)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, spec}) == 1

    def test_mc_seed_must_be_concrete(self):
        assert McJobSpec(instance="ti:30").seed == 7
        with pytest.raises(ValueError, match="seed"):
            McJobSpec(instance="ti:30", seed=None)

    def test_misplaced_positional_arguments_fail_fast(self):
        # The unified hierarchy moved pipeline/seed ahead of the MC axes, so
        # a legacy positional call like McJobSpec("ti:200", "contango",
        # "arnoldi", 512, "correlated") would land 512 in pipeline and
        # "correlated" in seed; the constructor must reject that shape
        # immediately rather than crash inside a worker.
        with pytest.raises(ValueError, match="pipeline"):
            McJobSpec("ti:200", "contango", "arnoldi", 512, "correlated")
        with pytest.raises(ValueError, match="pipeline"):
            JobSpec(instance="ti:30", pipeline="initial")  # a bare string
        with pytest.raises(ValueError, match="seed"):
            JobSpec(instance="ti:30", seed="7")

    @pytest.mark.parametrize("kind", [JobSpec, McJobSpec])
    @pytest.mark.parametrize(
        "pipeline", [("initial", "twsz_k"), ("initial", "twzs")]
    )
    def test_unknown_pass_names_fail_at_construction(self, kind, pipeline):
        with pytest.raises(ValueError, match=repr(pipeline[1])):
            kind(instance="ti:30", pipeline=pipeline)

    def test_registered_and_baseline_pass_names_are_accepted(self):
        spec = JobSpec(instance="ti:30", pipeline=("initial", "twsz_mc"))
        assert spec.pipeline == ("initial", "twsz_mc")
        assert McJobSpec(instance="ti:30", pipeline=("greedy_buffered",)).pipeline


class TestJobMatrixExpansion:
    def test_run_matrix_order_is_instance_flow_engine(self):
        matrix = JobMatrix(
            instances=["ti:30", "ti:60"],
            flows=["contango", "unoptimized_dme"],
            engines=["elmore", "arnoldi"],
        )
        jobs = matrix.expand()
        assert [(j.instance, j.flow, j.engine) for j in jobs] == [
            (instance, flow, engine)
            for instance in ["ti:30", "ti:60"]
            for flow in ["contango", "unoptimized_dme"]
            for engine in ["elmore", "arnoldi"]
        ]
        assert all(type(j) is JobSpec for j in jobs)

    def test_family_sweep_points_come_before_explicit_instances(self):
        matrix = JobMatrix(
            instances=["ti:20"],
            families=["banks"],
            fixed={"sinks": 16},
            sweeps={"clusters": [2, 4]},
            engines=["elmore"],
        )
        assert [j.instance for j in matrix.expand()] == [
            "scenario:banks:clusters=2,sinks=16",
            "scenario:banks:clusters=4,sinks=16",
            "ti:20",
        ]

    def test_pipeline_and_seed_reach_every_job(self):
        jobs = JobMatrix(
            instances=["ti:30"], pipeline=("initial", "twsz"), seed=11
        ).expand()
        assert jobs[0].pipeline == ("initial", "twsz")
        assert jobs[0].seed == 11

    def test_mc_matrix_expands_sample_axis_innermost(self):
        matrix = JobMatrix(
            instances=["ti:30", "ti:60"],
            monte_carlo=MonteCarloAxes(samples=(32, 64), family="correlated"),
        )
        jobs = matrix.expand()
        assert all(type(j) is McJobSpec for j in jobs)
        assert [(j.instance, j.samples) for j in jobs] == [
            ("ti:30", 32), ("ti:30", 64), ("ti:60", 32), ("ti:60", 64),
        ]
        assert {j.family for j in jobs} == {"correlated"}
        # A matrix without an explicit seed pins the MC default seed.
        assert {j.seed for j in jobs} == {7}

    def test_mc_axes_propagate_gating(self):
        (job,) = JobMatrix(
            instances=["ti:30"],
            monte_carlo=MonteCarloAxes(samples=(16,), gated=True, gate_samples=8),
        ).expand()
        assert job.gated is True
        assert job.gate_samples == 8

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least one instance"):
            JobMatrix().expand()
        with pytest.raises(ValueError, match="sample count"):
            MonteCarloAxes(samples=())

    def test_unknown_family_fails_before_any_expansion(self):
        with pytest.raises(KeyError, match="unknown scenario family"):
            JobMatrix(families=["nope"]).expand()

    def test_invalid_mc_axes_surface_at_expand(self):
        matrix = JobMatrix(
            instances=["ti:30"],
            flows=["unoptimized_dme"],
            monte_carlo=MonteCarloAxes(samples=(16,), gated=True),
        )
        with pytest.raises(ValueError, match="not available for flow"):
            matrix.expand()


class TestLabels:
    def test_labels_match_the_historical_layout(self):
        assert JobSpec(instance="ti:200").label == "ti-200__contango__arnoldi"
        assert (
            McJobSpec(instance="ti:200", samples=500, seed=3).label
            == "ti-200__contango__arnoldi__mc500__independent__seed3"
        )

    def test_matrix_labels_are_unique(self):
        jobs = JobMatrix(
            instances=["ti:30"],
            flows=["contango", "unoptimized_dme"],
            engines=["elmore", "arnoldi"],
        ).expand()
        labels = [j.label for j in jobs]
        assert len(set(labels)) == len(labels)
