"""Parallel experiment campaigns over the reproduction toolkit.

The paper's results are campaign-scale — 144 links surveyed repeatedly over
a year. This package is the batch layer that makes such workloads cheap:
describe experiments as :class:`ExperimentSpec` values (kind × testbed
preset × seed × parameters), hand the list to :class:`CampaignEngine`, and
collect a resumable JSONL artifact file whose finalized bytes are identical
at any worker count.

    from repro.campaign import survey_campaign
    stats = survey_campaign("office", seeds=[7, 8, 9],
                            out_path="survey.jsonl", workers=4)

See ``docs/architecture.md`` ("The campaign layer") for the determinism and
resume contracts.
"""

from repro.campaign.backends import (
    BACKEND_NAMES,
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    create_backend,
)
from repro.campaign.artifacts import (
    ArtifactWriter,
    QuarantineEntry,
    QuarantineWriter,
    TaskArtifact,
    is_artifact_file,
    quarantine_path_for,
    read_artifacts,
    read_quarantine,
)
from repro.campaign.engine import (
    CampaignAborted,
    CampaignEngine,
    EngineConfig,
    run_campaign,
    survey_campaign,
)
from repro.campaign.spec import (
    ExperimentSpec,
    check_specs,
    scenario_specs,
    spec_grid,
    survey_specs,
)
from repro.campaign.stats import CampaignStats, TaskFailure
from repro.campaign.tasks import (
    TASK_REGISTRY,
    TaskOutput,
    execute_spec,
    register_task,
    temporary_task_kind,
    unregister_task,
    validate_task_params,
)

__all__ = [
    "BACKEND_NAMES",
    "InlineBackend",
    "ProcessBackend",
    "ThreadBackend",
    "create_backend",
    "ArtifactWriter",
    "QuarantineEntry",
    "QuarantineWriter",
    "TaskArtifact",
    "is_artifact_file",
    "quarantine_path_for",
    "read_artifacts",
    "read_quarantine",
    "CampaignAborted",
    "CampaignEngine",
    "EngineConfig",
    "run_campaign",
    "survey_campaign",
    "ExperimentSpec",
    "check_specs",
    "scenario_specs",
    "spec_grid",
    "survey_specs",
    "CampaignStats",
    "TaskFailure",
    "TASK_REGISTRY",
    "TaskOutput",
    "execute_spec",
    "register_task",
    "temporary_task_kind",
    "unregister_task",
    "validate_task_params",
]
